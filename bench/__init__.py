"""Closed-loop benchmark of the nccw command line; see README.md."""
