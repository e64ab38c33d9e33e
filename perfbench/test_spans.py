"""Self-time arithmetic on hand-built spans.  Run: python3 -m pytest perfbench"""

import pytest

from spans import Tracer, self_sum_errors, self_times


def test_self_time_subtracts_covered_child_intervals():
    #  0: root    [0, 10]
    #  1:  child  [1, 4]   with grandchild 3 [2, 3]
    #  2:  child  [6, 9]
    #  4:  child  [8, 12]  overlaps 2 and runs past the root
    start = [0.0, 1.0, 6.0, 2.0, 8.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    # root: children cover [1, 4] + [6, 10] (clipped, union) = 7
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_of_a_nested_call_sum_to_its_span():
    tracer = Tracer()
    spans = [  # (start, end, parent, call)
        (0.0, 5.0, -1, 0), (0.5, 2.0, 0, 0), (1.0, 1.5, 1, 0), (3.0, 4.75, 0, 0),
        (6.0, 7.0, -1, 1),
    ]
    for s, e, p, c in spans:
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.call.append(c)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert own == pytest.approx([1.75, 1.0, 0.5, 1.75, 1.0])
    assert self_sum_errors(tracer, own) == pytest.approx({0: 0.0, 1: 0.0})
    # a second root in call 1 means the call has no single span to sum to
    tracer.start.append(7.5)
    tracer.end.append(8.0)
    tracer.parent.append(-1)
    tracer.call.append(1)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert self_sum_errors(tracer, own)[1] == float("inf")
