"""``python -m repro`` -> the cloudless CLI."""

from .cli import run

run()
