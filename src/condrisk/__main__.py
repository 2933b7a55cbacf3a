"""python -m condrisk: the condrisk command line, as the console script runs it."""
from .cli import main

raise SystemExit(main())
