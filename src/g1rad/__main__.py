"""`python -m g1rad`: the command-line interface of `g1rad.cli`, for a
checkout without an install (`PYTHONPATH=src python -m g1rad verify`)."""

from .cli import entry

if __name__ == "__main__":
    entry()
