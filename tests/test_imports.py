"""What each entry point loads: the package namespace resolves on first use,
the closed-form subcommands run without numpy, and a CLI call loads BLAS with
one thread unless the user chose a thread count. Each check runs in a fresh interpreter, so
modules imported by other tests do not hide a regression."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("core", "shannon", "link", "noisefig", "mna", "frontend", "matching", "arrays")


def _fresh(code: str, env: dict = None):
    """Run ``code`` in a new interpreter with src/ on the path; return the JSON it prints.
    ``env`` replaces the inherited environment."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


MODULES = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('rxfront'))"
LOADED = f"json.dumps({MODULES})"


def test_cli_import_loads_only_core():
    assert _fresh(f"import json, sys, rxfront.cli; print({LOADED})") == ["rxfront", "rxfront.cli", "rxfront.core"]


@pytest.mark.parametrize("command, scenario, module", [
    ("capacity", "capacity_demo", "rxfront.shannon"),
    ("noisefig", "noisefig_sweep", "rxfront.noisefig"),
])
def test_closed_form_subcommands_run_without_numpy(tmp_path, command, scenario, module):
    out = tmp_path / "report.csv"
    argv = [command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"), "--out", str(out)]
    loaded = _fresh(f"import json, sys, rxfront.cli; assert rxfront.cli.main({argv!r}) == 0; print({LOADED})")
    assert loaded == sorted(["rxfront", "rxfront.cli", "rxfront.core", module])
    assert out.read_text().startswith("bandwidth," if command == "capacity" else "r_l_ohms,")


def _link_doc(loads, optimize=None) -> dict:
    doc = {
        "link": {"z_r_ohms": {"re": 5, "im": 37}, "z_rt_ohms": {"re": 10}, "s_it_a2_per_hz": 1e-12,
                 "loads": [{"label": f"z{i}", "kind": "explicit", "z_l_ohms": {"re": re, "im": im}}
                           for i, (re, im) in enumerate(loads)]},
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }
    if optimize:
        doc["link"]["optimize"] = {**optimize, "n_re": 3, "n_im": 3}
    return doc


# Standard-library modules that a numpy-free call has no use for. dataclasses
# alone costs about 13 ms of start-up, most of it in inspect.
UNUSED_AT_STARTUP = ("csv", "dataclasses", "inspect", "numbers")


@pytest.mark.parametrize("command, scenario", [
    (None, None),  # import rxfront.cli only
    ("capacity", "capacity_demo"),
    ("noisefig", "noisefig_sweep"),
    ("link", "link_crossover"),
    ("match", "match_step_up"),
])
def test_numpy_free_calls_leave_unused_stdlib_modules_unloaded(tmp_path, command, scenario):
    run = ""
    if command:
        argv = [command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"), "--out", str(tmp_path / "r")]
        run = f"assert rxfront.cli.main({argv!r}) == 0"
    loaded = _fresh(f"""
import json, sys, rxfront.cli
{run}
print(json.dumps(sorted(set({UNUSED_AT_STARTUP!r}) & set(sys.modules))))
""")
    assert loaded == []


def test_link_and_match_run_without_numpy(tmp_path):
    # an optimize box whose best load is finite: -j |z_r|^2 / X_r
    boxed = tmp_path / "boxed.json"
    boxed.write_text(json.dumps(_link_doc([(50, 0)], {"r_max_ohms": 500, "x_max_ohms": 500})))
    calls = [
        ["link", "--scenario", str(ROOT / "scenarios" / "link_crossover.json")],
        ["link", "--scenario", str(boxed)],
        ["match", "--scenario", str(ROOT / "scenarios" / "match_step_up.json")],
    ]
    reports = [tmp_path / f"report{i}.csv" for i in range(len(calls))]
    calls = [[*argv, "--out", str(out)] for argv, out in zip(calls, reports)]
    codes, loaded = _fresh(f"""
import json, sys, rxfront.cli
print(json.dumps([[rxfront.cli.main(argv) for argv in {calls!r}], {MODULES}]))
""")
    assert codes == [0, 0, 0]
    assert loaded == ["rxfront", "rxfront.cli", "rxfront.core", "rxfront.link", "rxfront.matching"]
    assert reports[0].read_bytes() == (ROOT / "perfbench" / "reference" / "link_crossover.csv").read_bytes()
    assert reports[1].read_text().splitlines()[-1].startswith("optimal,0,-37.6756756757,")
    assert reports[2].read_bytes() == (ROOT / "perfbench" / "reference" / "match_step_up.csv").read_bytes()


def test_link_load_failures_keep_their_exit_codes_without_numpy(tmp_path):
    def scenario(name, loads, z_r=(5, 37)):
        doc = _link_doc(loads)
        doc["link"]["z_r_ohms"] = {"re": z_r[0], "im": z_r[1]}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return ["link", "--scenario", str(path)]

    calls = [
        scenario("negative", [(50, 0), (-1, 0)]),  # 1
        scenario("singular", [(50, 0), (-5, -37)]),  # 3
        scenario("overflow", [(50, 0), (1e200, 0)]),  # 3
        scenario("underflow", [(1e-170, -37)], z_r=(0, 37)),  # 3: |z_r + z_l|^2 underflows to 0
    ]
    codes, errors, loaded = _fresh(f"""
import contextlib, io, json, sys, rxfront.cli
codes, errors = [], []
for argv in {calls!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        codes.append(rxfront.cli.main(argv))
    errors.append(err.getvalue())
print(json.dumps([codes, errors, "numpy" in sys.modules]))
""")
    assert (codes, loaded) == ([1, 3, 3, 3], False)
    assert errors == [
        "validation error: load 'z1': z_l_ohms must have nonnegative real part\n",
        "numerical error: load 'z1': z_r_ohms + z_l_ohms = 0: divider is singular\n",
        "numerical error: load 'z1': Numerical result out of range\n",
        "numerical error: load 'z0': float division by zero\n",
    ]


def test_closed_form_failures_keep_their_exit_codes_without_numpy(tmp_path):
    # main's numerical-error clause names numpy's LinAlgError only once numpy is
    # loaded; every other exit must come out as it does in a run that loads it.
    def edited(name, section, key, value):
        doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
        doc[section][key] = value
        path = tmp_path / f"{name}-{key}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    calls = [
        ["capacity", "--scenario", edited("capacity_demo", "capacity", "bandwidths", [-1.0])],  # 1
        ["capacity", "--scenario", edited("capacity_demo", "capacity", "power", "1")],  # 2
        ["noisefig", "--scenario", edited("noisefig_sweep", "noisefig", "v_s_volts", {"re": 1e200})],  # 3
        ["noisefig", "--scenario", str(tmp_path / "missing.json")],  # 4
    ]
    codes, loaded = _fresh(f"""
import contextlib, io, json, sys, rxfront.cli
with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
    codes = [rxfront.cli.main(argv) for argv in {calls!r}]
print(json.dumps([codes, "numpy" in sys.modules]))
""")
    assert (codes, loaded) == ([1, 2, 3, 4], False)


def test_every_public_name_is_its_submodules_object():
    mismatched, missing_from_dir = _fresh(f"""
import importlib, json, rxfront
listed = set(dir(rxfront))
missing = sorted(set(rxfront.__all__) - listed)
subs = [importlib.import_module("rxfront." + name) for name in {SUBMODULES!r}]
bad = []
for name in rxfront.__all__:
    owners = [sub for sub in subs if name in vars(sub)]
    if name != "__version__" and not owners:
        bad.append(name)
    bad += [name for sub in owners if getattr(rxfront, name) is not vars(sub)[name]]
print(json.dumps([bad, missing]))
""")
    assert mismatched == [] and missing_from_dir == []


def test_star_import_binds_every_public_name():
    assert _fresh("""
import json, rxfront
scope = {}
exec("from rxfront import *", scope)
print(json.dumps(sorted(set(rxfront.__all__) - set(scope))))
""") == []


def test_unknown_names_raise_attribute_error_and_submodules_still_import():
    assert _fresh("""
import json, rxfront
try:
    rxfront.no_such_name
    raised = False
except AttributeError:
    raised = True
from rxfront import arrays
print(json.dumps([raised, hasattr(rxfront, "kernels"), arrays.__name__]))
""") == [True, False, "rxfront.arrays"]


def test_netlist_parses_without_numpy():
    assert _fresh(f"""
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from rxfront import mna
netlist = mna.parse_netlist(open({str(ROOT / "scenarios" / "divider.cir")!r}).read())
print(json.dumps([len(netlist.elements), netlist.n_nodes]))
""") == [5, 3]


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")


def _stripped(**extra) -> dict:
    """This environment without any thread-count variable, plus ``extra``."""
    return {**{k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}, **extra}


def _threads_after_main(argv: list, env: dict) -> list:
    """Run main(argv) in a fresh interpreter; return the exit code, its
    thread count afterwards and the thread-count variables it then holds."""
    return _fresh(f"""
import json, os, rxfront.cli
code = rxfront.cli.main({argv!r})
print(json.dumps([code, len(os.listdir("/proc/self/task")), {{k: os.environ.get(k) for k in {THREAD_VARIABLES!r}}}]))
""", env)


@needs_task_list
@pytest.mark.parametrize("scenario", ["array_pair", "validate_pair", "frontend_buffer", "frontend_netlist"])
def test_cli_calls_run_one_blas_thread(tmp_path, scenario):
    argv = [scenario.split("_")[0], "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--out", str(tmp_path / "report.csv")]
    code, threads, variables = _threads_after_main(argv, _stripped())
    assert (code, threads) == (0, 1)
    assert variables == dict.fromkeys(THREAD_VARIABLES)  # the setting is undone once numpy has loaded
    assert (tmp_path / "report.csv").read_bytes() == (ROOT / "perfbench" / "reference" / f"{scenario}.csv").read_bytes()


@needs_task_list
def test_a_thread_count_the_user_set_is_kept(tmp_path):
    env = _stripped(OPENBLAS_NUM_THREADS="2")
    argv = ["array", "--scenario", str(ROOT / "scenarios" / "array_pair.json"), "--out", str(tmp_path / "r")]
    code, threads, variables = _threads_after_main(argv, env)
    unpinned = _fresh('import json, os, numpy; print(len(os.listdir("/proc/self/task")))', env)
    assert (code, threads) == (0, unpinned)
    assert variables == {k: env.get(k) for k in THREAD_VARIABLES}


def test_main_with_numpy_loaded_leaves_the_environment_alone(tmp_path, monkeypatch):
    import numpy  # noqa: F401  (loaded before main runs)

    from rxfront import cli

    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    argv = ["array", "--scenario", str(ROOT / "scenarios" / "array_pair.json"), "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    assert dict(os.environ) == before
