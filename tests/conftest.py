"""Shared hypothesis profile: reproducible runs, no example database, no deadline.

Each property test sets its own ``max_examples``; everything else comes from
this profile.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "stacksolve",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stacksolve")
