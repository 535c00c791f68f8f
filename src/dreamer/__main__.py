"""`python -m dreamer` runs the command line."""

from .cli import entry

entry()
