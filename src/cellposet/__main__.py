"""``python -m cellposet``: the same command line as the ``cellposet``
console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
