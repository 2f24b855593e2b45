"""`python3 -m sfda2 <command>`: the `sfda2` command without installing it."""

from .cli import main

main()
