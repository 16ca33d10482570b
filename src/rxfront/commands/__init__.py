"""One module per subcommand. ``FIELDS`` is the table that checks a
scenario's top-level keys besides ``name``; ``FLAGS``, the report columns
that may print +inf as a result (``scenario.render_report``).
``build(scenario) -> model`` reads the files the scenario names and builds
its value objects, whose constructors check them: every parse, validation
and I/O error is raised here. ``solve(model) -> (columns, ok)`` reads no file
and only computes the report columns and whether every check passed. It
raises numerical errors, and the checks made inside a solver function:
``link``'s load sign, ``frontend``'s r_c, ``array``'s explicit load against
the model. ``cli._main`` runs parse, build, solve and render in that order.
A column is a list of cells, one per report row (a list of port cells, which
print joined with ";"). A call imports only its own subcommand's module."""
