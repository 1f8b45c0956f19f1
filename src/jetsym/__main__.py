"""``python -m jetsym``: the command-line driver."""
from .cli import entry

entry()
