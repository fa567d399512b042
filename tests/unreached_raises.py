"""The `raise` statements of the package that no tier-1 test runs, each with
the reason it stays; `raise_gate.py` fails a run on any other that never
runs, and on an entry here whose raise runs or is gone.

A key is "file:function: first line of the statement", as `raise_gate.raise_sites`
names it. Add an entry only with an argument that no test can reach the raise.
"""

EXCUSED: dict[str, str] = {}
