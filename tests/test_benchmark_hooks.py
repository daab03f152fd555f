"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps named functions of rkdual from outside, and a
target the program no longer has goes to ``Tracer.missing``: its layer then
reads 0 on every workload, and only the benchmark's own tests would notice.
Here the tracer runs on one verify, so a renamed or removed target fails
this suite.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

import tracer as perfbench_tracer  # noqa: E402
from rkdual import capproduct, checks  # noqa: E402
from rkdual.corpus import document  # noqa: E402


def test_every_tracer_target_resolves_on_a_verify_and_is_removed_after():
    original = checks.verify_equivalences
    tracer = perfbench_tracer.Tracer().install()
    try:
        assert checks.verify_equivalences is not original
        report = checks.run_command("verify", document("hex"))
    finally:
        tracer.remove()
    assert not tracer.missing
    assert report.checks and all(check.passed for check in report.checks)
    # the certificate's hook counted the labels of its cones: 6 certificates
    # over the 6 simplices of hex's control complex, the 3-cycle
    assert tracer.counters["duality.cone_labels"] == 36
    assert checks.verify_equivalences is original
    assert capproduct.verify_equivalences is original
