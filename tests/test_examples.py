"""Every example script must run cleanly (deliverable b)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *argv: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "ratio" in out
    assert "decompress_blocks + outlier overlay reproduces" in out


def test_heat_diffusion_quick():
    out = run_example("heat_diffusion.py", "--quick")
    assert "AVR" in out and "truncate" in out
    assert "normalized to the baseline" in out


def test_custom_design():
    out = run_example("custom_design.py")
    assert "truncate-8" in out and "avr-nodbuf" in out
    assert "DBUF hits" in out


def test_threshold_ablation_method_table(capsys):
    """The method ablation runs on public compressor results only: each
    placement wins on its own data and the full compressor follows it.
    (The whole script also sweeps T2 over two workloads, ~8 s.)"""
    spec = importlib.util.spec_from_file_location(
        "threshold_ablation", EXAMPLES / "threshold_ablation.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    table = module.method_ablation()
    assert "selected" in capsys.readouterr().out
    series, field = table["time series"], table["2D field"]
    assert series["1D"][1] == 100.0 and series["2D"][1] == 0.0
    assert field["2D"][1] == 100.0 and field["1D"][1] == 0.0
    assert series["both"] == series["1D"] and field["both"] == field["2D"]


#: imports each script given on the command line as a module, without
#: running its ``main``
IMPORT_EACH = """
import importlib.util
import sys
from pathlib import Path

for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location(Path(path).stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def test_examples_exist_and_are_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        text = (EXAMPLES / script).read_text()
        assert text.startswith('"""'), f"{script} missing module docstring"
        assert "Run:" in text, f"{script} missing run instructions"
    # Every example must import against the package, including those no
    # test runs.  A subprocess keeps custom_design.py's import-time
    # register_design calls out of this process's design registry.
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH, *(str(EXAMPLES / s) for s in scripts)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
