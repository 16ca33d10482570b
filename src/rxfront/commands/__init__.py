"""One module per subcommand: ``FIELDS``, the table that checks a scenario's
top-level keys besides ``name``; ``FLAGS``, the report columns that may
print +inf as a result (see ``scenario.check_range``); and
``run(scenario) -> (columns, ok)``, the report columns and whether every
check passed. ``rxfront.scenario`` imports the scenario's module once it
has found its section, so each call compiles and loads only its own
subcommand's code."""
