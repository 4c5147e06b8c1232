"""SLO compliance prediction framework (Section 6 of the paper).

Deliberately re-exports nothing: import each name from the module that
defines it.  The serving tier imports ``prediction.slo`` for
``ServiceLevelObjective`` on its request path, and a package-level
re-export would load ``histogram`` and with it numpy (~13 MB per process)
that no request uses.  Only ``histogram``, ``model``, ``training`` and
``heatmap`` need numpy.
"""
