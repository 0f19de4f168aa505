"""Tests of the benchmark itself: its generators, its checks and a quick
run of every workload.

    python -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import gramweave  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _round(name: str, scale=workloads.QUICK, seed: int = 3):
    return workloads.ROUNDS[name](seed, 1, scale)


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_generators_repeat_for_a_seed(name):
    for scale in (workloads.QUICK, workloads.FULL):
        first, again = _round(name, scale), _round(name, scale)
        assert [(c.text, c.expect) for c in first] == \
               [(c.text, c.expect) for c in again]
    other = _round(name, seed=4)
    assert [c.text for c in other] != [c.text for c in _round(name)]


def test_past_limit_inputs_do_not_depend_on_the_seed():
    def past(seed, r):
        return sorted(c.text for c in workloads.arith_round(seed, r) if c.past_limit)

    assert len(past(1, 0)) == 2
    assert past(1, 0) == past(2, 5)


def test_sizes_spread_over_the_range():
    sizes = workloads.spread_sizes("x", 1, 0, 200, 3, 300)
    assert min(sizes) < 4 and max(sizes) > 250
    assert 25 < sorted(sizes)[100] < 36  # the log-uniform median is 30


@pytest.fixture(scope="module")
def java():
    return worker.JavaFiles()


@pytest.fixture(scope="module")
def weave():
    return worker.WeaveGrammars()


def test_java_outputs_pass_every_check(java):
    for case in _round("java_files"):
        assert java.check(case, java.run(case)) == []


def test_java_groups_check_rejects_a_swapped_group(java):
    case = _round("java_files")[0]
    spans = java.run(case)["spans"]
    keyword = next(i for i, s in enumerate(spans) if s.group == "keyword")
    plain = next(i for i, s in enumerate(spans) if s.group == "plain")
    spans[keyword], spans[plain] = (
        dataclasses.replace(spans[keyword], group="plain"),
        dataclasses.replace(spans[plain], group="keyword"))
    assert checks.java_groups(case, spans) == ["java_files.groups"]


def test_java_render_check_rejects_an_extra_space(java):
    case = _round("java_files")[0]
    rendered = java.run(case)["rendered"].replace("{", "{ ", 1)
    assert checks.java_render(case, rendered) == ["java_files.render"]


def test_java_format_check_rejects_an_extra_space(java):
    case = _round("java_files")[0]
    out = java.run(case)
    reference = worker.reference_format(out["tree"], java.store)
    formatted = out["formatted"].replace(";", " ;", 1)
    assert checks.java_format(case, formatted, reference, java._reformat) == \
        ["java_files.format_reference", "java_files.format_idempotent"]


def test_arith_check_rejects_a_value_off_by_one():
    arith = worker.ArithLong()
    case = next(c for c in _round("arith_long") if not c.past_limit)
    tree = arith.run(case)["tree"]
    assert checks.arith(case, tree) == []
    wrong = dataclasses.replace(case, expect=case.expect + 1)
    assert checks.arith(wrong, tree) == ["arith_long.value"]


def test_weave_check_rejects_a_dropped_attribute(weave):
    case = _round("weave_grammars")[0]
    out = weave.run(case)
    doc = json.loads(out["text"])
    doc["annotations"].pop()
    text = json.dumps(doc, indent=2) + "\n"
    store = gramweave.deserialize_store(text)
    failed = checks.weave(case, gramweave, weave.aspects, out["tree"], store, text)
    assert "weave_grammars.attr_counts" in failed
    assert "weave_grammars.deterministic" in failed


def test_weave_counts_match_the_planted_shapes(weave):
    for case in _round("weave_grammars", workloads.FULL)[:3]:
        assert weave.check(case, weave.run(case)) == []
        assert case.expect.matches[6] == case.size


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    past_limit = 2 if name == "arith_long" else 0
    assert result["failed"] == past_limit
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "java_files", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
