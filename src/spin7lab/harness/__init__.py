"""Verification harness: the named check suites (``checks``) and the
command-line front end (``cli``), imported by submodule."""
