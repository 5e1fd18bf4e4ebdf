"""daffine: exact rational models of double and n-fold affine bundles.

Everything is computed over Q with no tolerances: special affine spaces are
modelled inside their vector hulls as order-one graded bundles, double affine
bundles in decomposed form, bundle atlases as polynomial transition data, and
the cotangent phase/contact tower in a global trivialisation.  A small text
format (.daff) and CLI drive randomized-but-deterministic verification suites
over these objects.
"""

__version__ = "0.1.0"
