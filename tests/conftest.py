"""Settings for the whole suite."""

from hypothesis import settings

# Each hypothesis test draws its examples from a seed derived from the test
# itself, so every run draws the same ones: a fault found once is found on
# every run, and each test keeps the example count it sets.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
