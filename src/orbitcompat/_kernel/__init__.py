"""The Groebner engine behind ``groebner``, on raw integer term lists.

``groebner`` calls the engine through the three module attributes below,
so a caller can wrap or replace them in one place: ``buchberger_raw`` makes
a minimal basis, ``interreduce_raw`` tail-reduces it and keys the result,
and ``normal_form_raw`` reduces against that keyed basis.
"""

from . import pure

BACKEND = "pure"
buchberger_raw = pure.buchberger
interreduce_raw = pure.interreduce
normal_form_raw = pure.normal_form
