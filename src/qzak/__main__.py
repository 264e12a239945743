"""``python -m qzak``: the experiment command line."""

from .cli import main

main()
