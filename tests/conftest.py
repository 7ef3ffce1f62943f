"""Settings shared by every test module."""
from hypothesis import settings

# one hypothesis profile: derandomized, so every run of the suite tries the
# same examples, and no deadline, because one example may build a solver
# input or a quadrature grid
settings.register_profile("icageo", deadline=None, derandomize=True)
settings.load_profile("icageo")
