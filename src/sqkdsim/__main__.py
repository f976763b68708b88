"""``python -m sqkdsim``: the same command line as the ``sqkdsim`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
