"""Golden digests: the exact bytes of every data file for small configs of all six experiments.

Run configs through ``run_experiment`` and compare the SHA-256 of each data
file (``manifest.json`` excluded: it embeds the package version) with the
digests pinned below.  A change that alters any output byte, including a
sampler rewrite that keeps the statistics, fails here.

The digests were pinned under the numpy version recorded beside them; under
another numpy the test is skipped.  Re-pin with ``python tests/test_golden.py``
and declare the byte change.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from thermoflow.experiments import run_experiment

NUMPY_VERSION = "2.4.6"

# label -> (raw config without output_dir, output format)
CONFIGS = {
    "fig3-default": ({"experiment": "fig3-loss"}, "csv"),
    "tth-default": ({"experiment": "fig5-fig6-tth"}, "csv"),
    "qudit-preset": (
        {"experiment": "qudit-convergence", "parameters": {"preset": "random-diagonal-d4", "N_values": [100, 200]}},
        "csv",
    ),
    "qudit-endpoints": (
        {
            "experiment": "qudit-convergence",
            "parameters": {
                "H0": [[0.0, 0.0], [0.0, 1.6]],
                "H1": [[0.0, [0.1, 0.2]], [[0.1, -0.2], 0.3]],
                "N_values": [100, 200],
            },
        },
        "csv",
    ),
    "breakdown-unitary-partial": (
        {"experiment": "breakdown-scaling", "parameters": {"N_values": [16, 32], "substeps": 4}},
        "csv",
    ),
    "breakdown-quench-pinch": (
        {
            "experiment": "breakdown-scaling",
            "parameters": {
                "preset": "qubit-cyclic-gap",
                "channel": "pinch",
                "evolution": "quench",
                "N_values": [32, 64],
            },
        },
        "csv",
    ),
    # 1100 runs span three trial blocks, the last one partial
    "fig4-three-blocks": (
        {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 40], "runs": 1100, "bins": 20}},
        "csv",
    ),
    "custom-average-work": ({"experiment": "custom", "parameters": {"op": "average-work", "N": 50}}, "csv"),
    "custom-loss": ({"experiment": "custom", "parameters": {"op": "loss", "N": 50}}, "csv"),
    "custom-work-moments": ({"experiment": "custom", "parameters": {"op": "work-moments", "N": 50}}, "csv"),
    "fig3-json": ({"experiment": "fig3-loss", "parameters": {"N_grid": [10, 100, 1000]}}, "json"),
    # T = 3.7 runs at T / 2^2
    "fig3-scaled": ({"experiment": "fig3-loss", "parameters": {"temperature": 3.7, "N_grid": [10, 100, 1000]}}, "csv"),
    "breakdown-unitary-gap": (
        {"experiment": "breakdown-scaling", "parameters": {"preset": "qubit-cyclic-gap", "N_values": [16, 32], "substeps": 4}},
        "csv",
    ),
}

GOLDEN = {
    "breakdown-quench-pinch": {
        "breakdown_scaling.csv": "c32765dfe221988e774a783e80368e5ebbe50ddd88e50b95e7623324f33954a5",
    },
    "breakdown-unitary-gap": {
        "breakdown_scaling.csv": "ed60cd7aa138589168e04e3ba12da6f02423819c247200145dcbb8e73505d25d",
    },
    "breakdown-unitary-partial": {
        "breakdown_scaling.csv": "791b91c64cec062bc9e04525079e488f65eb1db31f61d827ab31cfe6f95e713e",
    },
    "custom-average-work": {
        "custom.csv": "76c6c8f9d24653350c75ba45457b4accb89dd1ea8bf70a79ce55cd9bb5e710f4",
        "custom_ledger.json": "2ab7ea52c8fa97b325a28e73feaf77e88b93eeb806dcde4a000d9ccdea18ed7b",
    },
    "custom-loss": {
        "custom.csv": "0d7062706fe826665b7f341c2ec65d220e7a165fa44852952334ad2b22f1ee5b",
    },
    "custom-work-moments": {
        "custom.csv": "29d0a15b39dae15a9aa57c48e2b38c4de88cda38a8491d443c0ea91c84e9d59a",
        "custom_ledger.json": "6296e671cdc1f5c6284a7d7144aadc2426c2fadd91e656f1ba3989dc87f438f6",
    },
    "fig3-default": {
        "fig3_loss.csv": "dbf8217817f11649f5a197026f1920cf56aac1ff81852247571247a623372d12",
    },
    "fig3-json": {
        "fig3_loss.json": "54de3feb008cf6844ed5cbb5f2ff5c01ac957a74674d0f960afaa6e01d2fcc9a",
    },
    "fig3-scaled": {
        "fig3_loss.csv": "fcbd6c03069ce35aaddc81d2a9a7f1daa1ea8ba6c96f8cd84fede2c8f85ad76b",
    },
    "fig4-three-blocks": {
        "fig4_hist_N12.csv": "f4e805f6f73e91f9e57e19adb45b4d57a621d017c258cadfa181c2387e666421",
        "fig4_hist_N40.csv": "05ef3705571a80cfc8f6cb8d8a63505142a12e166ba5a6e1c7347e9eac05886b",
        "fig4_summary.csv": "90bfa5d0707574a3c70c0212717e0e3c336170740dd20d34d32707c8ee1a810e",
    },
    "qudit-endpoints": {
        "qudit_convergence.csv": "5bd3e5c3b78c6baf8635f7d989f76f18d40c4f360e54efb3a10e7d683ee226da",
    },
    "qudit-preset": {
        "qudit_convergence.csv": "dbee4b3254ffe4c1e6dc46527d281ad4246bba0b3d8b835e59e68215ca3a7153",
    },
    "tth-default": {
        "tth_cosine.csv": "b836893d5e94e48382dcbfee36ca2a290cb1c007a8360283a6ab370df6bfb71a",
        "tth_exponential.csv": "4eec11df8836312ddddba4444bc7acf1523e8c9313b847bd360caf18f5ca8dc8",
        "tth_optimum.json": "ffb7c03c3dfcf6e6d533a57c91ebcc7aae2700dd868e4db6930e0218a230227a",
    },
}


def data_digests(label, out_dir):
    raw, fmt = CONFIGS[label]
    manifest = run_experiment(dict(raw, output_dir=str(out_dir)), output_format=fmt)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name, _, _ in manifest.outputs}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests pinned under numpy {NUMPY_VERSION}, running numpy {np.__version__}",
)
@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_outputs_match_golden_digests(label, tmp_path):
    assert data_digests(label, tmp_path) == GOLDEN[label]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        digests = {label: data_digests(label, Path(tmp) / label) for label in sorted(CONFIGS)}
    print(f"# numpy {np.__version__}", file=sys.stderr)
    print(json.dumps(digests, indent=4, sort_keys=True))
