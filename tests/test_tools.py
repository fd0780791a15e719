"""The pure helpers of the command-line tools under tools/."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchpairs = load("benchpairs")


class TestBeyondSpread:
    # Base median 12, quartiles 10.5 and 13.5 (q3 - q1 = 3).
    BASE = [14.0, 10.0, 13.0, 11.0, 12.0]

    def test_quartiles(self):
        assert benchpairs.quartiles(self.BASE) == (10.5, 12.0, 13.5)

    @pytest.mark.parametrize("change, beyond", [
        ([15.1, 15.1, 15.1], True),    # above, by more than the spread
        ([8.9, 8.9, 8.9], True),       # below, by more than the spread
        ([14.9, 14.9, 14.9], False),   # above, within it
        ([9.1, 9.1, 9.1], False),      # below, within it
        ([15.0, 15.0, 15.0], False),   # exactly the spread is not beyond
        ([1.0, 15.2, 99.0], True),     # the median decides, not the mean
        ([1.0, 12.5, 99.0], False),
    ])
    def test_compares_medians_with_the_base_spread(self, change, beyond):
        assert benchpairs.beyond_spread(self.BASE, change) is beyond

    def test_a_single_base_run_has_no_spread(self):
        assert benchpairs.beyond_spread([5.0], [5.0]) is False
        assert benchpairs.beyond_spread([5.0], [5.1]) is True
        assert benchpairs.spread([5.0]) == "5"
