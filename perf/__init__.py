"""The engine's one performance benchmark (see ``perf/README.md``).

A package only so that ``perf/trace.py`` never shadows the stdlib ``trace``
module: ``run.py`` and ``server_main.py`` import their siblings as
``perf.<module>`` with the repository root, not this directory, on the path.
"""
