"""Fuzzing the group strings of ``fibration --coeff-even/--coeff-odd``.

Any string over the grammar's characters, and any well-formed group with
free ranks far beyond what could be listed, must end in exit 0, 1 or 2
with at most one ``error:`` line; no exception may leave ``cli.main``.
"""

import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import check_cli_contract

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BASES = [os.path.join(FIXTURES, name) for name in ("point.json", "rp2.json", "circle.json")]

free_ranks = st.one_of(st.integers(0, 50), st.integers(2**63, 2**80))
terms = st.one_of(
    st.sampled_from(["0", "Z", "Q"]),
    st.builds("{}^{}".format, st.sampled_from("ZQ"), free_ranks),
    st.builds("Z/{}".format, st.integers(0, 60)),
)
well_formed = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(terms, min_size=1, max_size=4),
    st.sampled_from(["+", " + ", "(+)", " (+) "]),
)
group_strings = st.one_of(
    well_formed, st.text(alphabet="ZQ^/+()0123456789 ", max_size=24)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strings, group_strings, st.sampled_from(["k", "hp"]))
@example(f"Z^{2**63}", "0", "k")
@example("Z/2 + Q^9223372036854775808", "Z^3", "k")
def test_group_strings_never_escape(even, odd, theory):
    for base in BASES:
        check_cli_contract(["fibration", "--base", base, "--coeff-even", even,
                            "--coeff-odd", odd, "--theory", theory])
