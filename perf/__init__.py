"""Host-speed benchmark of the reproduction (see ``perf/README.md``)."""
