"""The Groebner engine behind ``groebner``, on raw integer term lists.

``groebner`` calls the engine through the module attributes below, so a
caller can wrap or replace them in one place.
"""

from . import pure

BACKEND = "pure"
buchberger_raw = pure.buchberger
interreduce_raw = pure.interreduce
normal_form_raw = pure.normal_form
key_basis = pure.key_basis
