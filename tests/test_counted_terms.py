"""The checked-in counted-against-predicted table (``tests/fixtures/counted_terms.md``)
is what a fresh run of ``tests/counted_terms.py`` prints: a change to the
lowering's counters, the planner or ``_build_workload`` that moves a number
or a cause rewrites the table (``--write``) and says why."""

import counted_terms


def test_the_checked_in_table_is_current():
    assert counted_terms.table() == counted_terms.TABLE.read_text()
