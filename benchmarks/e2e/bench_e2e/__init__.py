"""The end-to-end benchmark (ISSUE 13); ``../run.py`` is the one command."""
