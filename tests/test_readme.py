"""The README's library example runs as printed and prints what its
comments say."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_runs_as_printed(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # report.sum, result.report.sum[0], the stacked search's shapes,
    # report.forward[0] (two lines), the ratio of forward[0] to backward[0] at (0, 1)
    assert len(printed) == 6
    assert printed[0].startswith("-0.0719")
    assert float(printed[1]) <= float(printed[0])
    assert printed[2] == "(2, 4, 4) [0 0]"
    assert np.allclose(namespace["report"].forward[0], [[0.0, 0.75], [0.25, 0.0]], rtol=0.0, atol=1e-15)
    assert printed[5].startswith("3.000")
    assert namespace["u"].shape == (100, 4, 4)
