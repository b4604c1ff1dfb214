import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run (derandomized, no
# example database) and carry no per-example deadline, which a loaded
# 2-core host would miss.
settings.register_profile("adamerge", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("adamerge")
