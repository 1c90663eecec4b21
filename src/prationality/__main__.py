"""Run the `prat` command line as `python -m prationality`."""

from .cli import main

if __name__ == "__main__":
    main()
