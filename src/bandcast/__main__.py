"""``python -m bandcast``: the experiment harness CLI."""

from .harness import main

if __name__ == "__main__":
    main()
