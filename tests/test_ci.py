import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a pytest step that selects by keyword, as the workflow writes it: python -m pytest [options and files] -k "expression"
K_STEP = re.compile(r'python -m pytest (?P<args>[^\n]*?) -k "(?P<expression>[^"]+)"')


def _k_steps() -> list[tuple[list[str], list[str]]]:
    """(test files, or-terms) of each pytest line of the workflow that selects with -k."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return [
        ([a for a in shlex.split(m["args"]) if a.endswith(".py")], m["expression"].split(" or "))
        for m in K_STEP.finditer(text)
    ]


def _selects(term: str, node_id: str) -> bool:
    """pytest's -k match of one plain term: a case-insensitive substring of the test's name (with its parameter id),
    its module's file name or a directory name."""
    return any(term.lower() in name.lower() for name in re.split(r"::|/", node_id))


def test_every_k_term_of_the_workflow_selects_a_test():
    # a renamed test drops out of a -k step without a failure: the step then runs fewer tests, or none
    steps = _k_steps()
    assert steps, "no pytest -k line found in the workflow"
    files = sorted({f for step_files, _ in steps for f in step_files})
    assert files and all((ROOT / f).is_file() for f in files), files
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    node_ids = [line for line in done.stdout.splitlines() if "::" in line]
    for step_files, terms in steps:
        in_step = [n for n in node_ids if n.split("::")[0] in step_files]
        for term in terms:
            assert term.strip() and any(_selects(term.strip(), n) for n in in_step), (
                f"-k term {term!r} selects no test of {step_files}"
            )
