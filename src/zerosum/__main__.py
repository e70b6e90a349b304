"""Run the zerosum command without installing it: python -m zerosum ..."""
from .cli import main
main()
