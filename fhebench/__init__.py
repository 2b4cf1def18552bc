"""The repository's benchmark (``python3 fhebench/run.py``)."""
