"""One module per subcommand: its scenario field tables (``FIELDS``) and its
runner, ``run(scenario) -> (columns, ok)``. ``rxfront.scenario`` imports the
scenario's module once it has found the scenario's section, so each call
compiles and loads only its own subcommand's code."""
