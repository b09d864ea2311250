from hypothesis import settings

# Property examples are timed on shared hosts, where a busy neighbour can
# stretch one past hypothesis's default 200 ms deadline; a slow example is
# not a failure, so no test has a deadline.  Example counts stay per test.
settings.register_profile("multiframe", deadline=None)
settings.load_profile("multiframe")
