"""One module per subcommand: ``FIELDS``, the table that checks a scenario's
top-level keys besides ``name``; ``FLAGS``, the report columns that may
print +inf as a result (see ``scenario.render_report``); and
``run(scenario) -> (columns, ok)``, the report columns and whether every
check passed. A column is a Python list of cells, one per report row; a
port column is a list of row lists, whose cells print joined with ";".
``rxfront.scenario`` imports the scenario's module once it has found its
section, so each call compiles and loads only its own subcommand's code."""
