"""`python -m analogdist`: the CLI without an installed console script."""

from analogdist.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
