"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracing.py`` binds package functions by name; a rename or deletion
in ``src`` would break ``bench/run.py --trace 1`` and ``--smoke`` without
failing any other test.
"""

from pathlib import Path

import prolate.cli
import prolate.spectrum

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_and_restores(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    original = prolate.spectrum.transition_widths
    tracer = Tracer()
    tracer.install()
    try:
        assert prolate.spectrum.transition_widths is not original
        code = prolate.cli.main(["width", "--n", "256", "--w", "0.2", "--eps", "1e-8"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.spans
    assert tracer.summarize(0, len(tracer.spans))["spectrum.self_s"] > 0.0
    assert prolate.spectrum.transition_widths is original
