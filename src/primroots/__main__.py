"""``python -m primroots``: the primroots command line."""

from .cli import main

if __name__ == "__main__":
    main()
