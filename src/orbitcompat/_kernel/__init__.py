"""The Groebner engine behind ``groebner``, on raw integer term lists.

``groebner`` calls the engine through the four module attributes below,
so a caller can wrap or replace them in one place: ``buchberger_raw`` makes
a minimal basis, ``saturate_last_raw`` divides a minimal grevlex basis by
the powers of its last variable in its leading terms and minimalises it,
``interreduce_raw`` tail-reduces a minimal basis, and ``normal_form_raw``
reduces against the reduced basis.  Each basis is a ``Basis``: the
engine polynomials, keyed once, and their layout, which fixes the
variables and the order, so only ``buchberger_raw`` takes an order.  It
reads as its ``[(exp, int)]`` lists, stripped off the polynomials when
first iterated, indexed, compared or printed, and answers its leading
monomials and grevlex gradedness off the packs; ``Basis.of_lists`` makes
one from plain lists.  A basis that ``normal_form_raw`` reduces against
keeps the lead-support index its first normal form makes, which finds each
leading term's reducer among the few elements whose variables it has, and
later normal forms against the same basis reuse it.
"""

from . import pure

BACKEND = "pure"
Basis = pure.Basis
buchberger_raw = pure.buchberger
saturate_last_raw = pure.saturate_last
interreduce_raw = pure.interreduce
normal_form_raw = pure.normal_form
