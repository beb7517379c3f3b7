"""``python -m critmode``: the critmode command line."""

from .cli import main

raise SystemExit(main())
