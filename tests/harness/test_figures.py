"""Figure-regeneration API (small-scale smoke; full runs in benchmarks/)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness.figures import FIGURES, figure8, figure9, regenerate
from repro.workloads import KERNELS

OPS = 60


class TestFigure8:
    def test_returns_all_series(self):
        result = figure8(num_ops=OPS)
        assert set(result.data["speedup"]) == set(KERNELS)
        assert "SLPMT" in result.data["geomean"]
        assert "Figure 8" in result.text

    def test_slpmt_wins_even_at_small_scale(self):
        result = figure8(num_ops=OPS)
        assert result.data["geomean"]["SLPMT"] > 1.1


class TestFigure9:
    def test_shape(self):
        result = figure9(num_ops=OPS)
        assert set(result.data["speedup"]) == set(KERNELS)
        assert all(v > 1.0 for v in result.data["speedup"].values())


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14"
        }

    def test_regenerate_by_name(self):
        result = regenerate("fig09", num_ops=OPS)
        assert result.name == "fig09"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            regenerate("fig99")


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "fig14" in out

    def test_single_figure(self, capsys):
        from repro.__main__ import main

        assert main(["fig09", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "regenerated" in out


SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Prints which figure modules a fresh interpreter loaded on import.
LOADED = """
import json, sys
import {module}
loaded = lambda: sorted(
    m for m in sys.modules
    if m.startswith("repro.compiler") or m == "repro.harness.figures"
)
before = loaded()
import repro
regenerate = repro.regenerate
from repro.harness import FIGURES, FigureResult
print(json.dumps([before, regenerate.__module__, loaded()]))
"""


class TestLazyFigures:
    """Only figure regeneration loads the figure table and the
    annotation compiler it imports."""

    @pytest.mark.parametrize("module", ["repro", "repro.fuzz.campaign"])
    def test_import_loads_no_compiler(self, module):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", LOADED.format(module=module)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        before, where, after = json.loads(done.stdout)
        assert before == []
        assert where == "repro.harness.figures"
        assert "repro.harness.figures" in after
        assert "repro.compiler.annotate" in after

    def test_unknown_attribute_still_raises(self):
        import repro
        import repro.harness

        with pytest.raises(AttributeError, match="no_such"):
            repro.no_such
        with pytest.raises(AttributeError, match="no_such"):
            repro.harness.no_such
