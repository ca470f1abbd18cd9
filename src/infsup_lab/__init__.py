"""Mixed finite element laboratory for saddle-point stability studies.

Stokes discretizations with stable and unstable velocity/pressure pairs,
pressure stabilization schemes, volumetric-locking demonstrations, weakly
imposed Dirichlet conditions, and discrete inf-sup constants computed from
one pressure-sized eigenproblem of the Schur complement B X^{-1} B^T.
"""

__version__ = "0.1.0"
