"""Compare two source trees of capsroute: eval outputs, seeded training, step time.

    python3 tools/equiv.py PARENT [CHANGE] [--toy]
    python3 tools/equiv.py PARENT [CHANGE] --time WORKLOAD [--rounds N]

PARENT and CHANGE are each a git revision or a directory holding a
checkout; CHANGE defaults to the working tree this script sits in. A
revision is extracted with `git archive` into a temporary directory, so
the repository's own state is never touched. Each tree runs in its own
subprocess with BLAS on one thread, importing `capsroute` from its `src/`
and the benchmark's recipe from its `perfbench/workloads.py`, which is
read and never changed. The JSON printed on standard output holds:

- "predict", "grad_cam": SHA-256 per tree of the f32 eval scores of
  eval_desk's held-out images and of the Grad-CAM maps of the first
  images' ground-truth boxes, whether they are equal, and "max_rel": the
  largest |CHANGE - PARENT| over the largest |PARENT|. Both trees load the
  same state arrays: PARENT trains eval_desk's recipe net and writes its
  `state_arrays()` with its own `save_checkpoint`, and each tree reads
  them with its own `load_checkpoint` into its own recipe net, through
  `Network.load_state_arrays`.
- "train": per workload and dtype, the seeded steps of perfbench's recipe
  (data seed 4, step rng 7; 12 train_desk, 12 train_desk_baseline and 3
  train_paper steps, in f32 and in f64): "loss_max_rel", the largest
  relative step-loss difference; "state_max_rel", the largest difference
  of any state array relative to that array's largest magnitude; and
  "bitwise", whether losses and every state array are equal. PARENT's final
  state is read back into CHANGE's recipe net the same way, so a change of
  state layout fails loudly instead of comparing unlike arrays.
- "equal": whether everything was bitwise equal.

`--toy` runs a few desk steps and images only, in seconds. `--time` runs
no comparison: it imports both trees under distinct package names in one
process, sets up WORKLOAD (a perfbench workload, data seed 4) in each, and
times `--rounds` interleaved rounds, alternating which tree goes first. A
round is one train step of a train workload, or one predict batch and one
CAM case (`grad_cam` and `heatmap_to_box`) of eval_desk. For each kind of
operation it prints the median and IQR of each tree's time, and the
median paired change and number of rounds CHANGE was faster.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_SEED, STEP_SEED = 4, 7
STEPS = {"train_desk": 12, "train_desk_baseline": 12, "train_paper": 3}
TOY_STEPS = {"train_desk": 2, "train_desk_baseline": 2}
EVAL_IMAGES, CAM_IMAGES = 1024, 64  # predicted images, and those whose boxes are CAM cases
TOY_EVAL_IMAGES, TOY_CAM_IMAGES, TOY_PRETRAIN = 64, 4, 2


def _blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _tree(spec: str, tmp: Path, tag: str) -> Path:
    """A directory holding the tree `spec` names: itself, or a revision's files."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    dest = tmp / tag
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


# ---------------------------------------------------------------------------
# One tree, in its own process
# ---------------------------------------------------------------------------


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(state[name].tobytes())
    return h.hexdigest()


def _child(tree: Path, work: Path, role: str, toy: bool) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import dataclasses

    import numpy as np
    import workloads as wl
    from capsroute import data, evaluation, model, training

    # only names both trees share: the state arrays go through the checkpoint
    # file format, and each tree loads them into a net of its own building
    def save(path, net):
        data.save_checkpoint(path, data.Checkpoint(tensors=net.state_arrays()))

    def load(path, net):
        net.load_state_arrays(data.load_checkpoint(path).tensors)
        return net

    out = {}
    eval_w = wl.WORKLOADS["eval_desk"]
    ckpt = work / "eval.ckpt"
    if not ckpt.exists():  # the first tree trains the model both evaluate
        st = wl.setup_train(eval_w, wl.EVAL_MODEL_SEED)
        rng = np.random.default_rng(wl.EVAL_MODEL_SEED)
        for k in range(TOY_PRETRAIN if toy else wl.EVAL_PRETRAIN_STEPS):
            wl.train_step(st, k, rng)
        save(ckpt, st.net)
    net = load(ckpt, model.build_network(wl.network_config(eval_w.input_size), wl.EVAL_MODEL_SEED))
    n_images, n_cam = (TOY_EVAL_IMAGES, TOY_CAM_IMAGES) if toy else (EVAL_IMAGES, CAM_IMAGES)
    held = data.generate_synthetic(n_images, eval_w.input_size, wl.N_CLASSES, seed=DATA_SEED + 1, class_prior=wl.CLASS_PRIOR)
    images = np.stack([training.standardize(s.image) for s in held])[:, None]
    scores = net.predict(images, batch_size=wl.PREDICT_BATCH)
    cams = np.stack([evaluation.grad_cam(net, images[i, 0], box[0]).raw for i, s in enumerate(held[:n_cam]) for box in s.boxes])
    out["predict"], out["grad_cam"] = _digest([scores]), _digest([cams])
    np.savez(work / f"{role}-eval.npz", predict=scores, grad_cam=cams)

    out["train"] = {}
    for name, steps in (TOY_STEPS if toy else STEPS).items():
        w = wl.WORKLOADS[name]
        for dtype in ("f32", "f64"):
            shipped = wl.network_config
            wl.network_config = lambda size: dataclasses.replace(shipped(size), dtype=dtype)
            try:
                st = wl.setup_train(w, DATA_SEED)
            finally:
                wl.network_config = shipped
            rng = np.random.default_rng(STEP_SEED)
            losses = [wl.train_step(st, k, rng).mean_loss for k in range(steps)]
            save(work / f"{role}-{name}-{dtype}.ckpt", st.net)
            run = {"losses": losses}
            if role == "change":  # both final states, read back into this tree's recipe net
                mine, theirs = (
                    {k: a.copy() for k, a in load(work / f"{r}-{name}-{dtype}.ckpt", st.net).state_arrays().items()}
                    for r in ("change", "parent")
                )
                run["state"], run["parent_state"] = _state_digest(mine), _state_digest(theirs)
                run["state_max_rel"] = max(
                    float(np.abs(mine[k] - theirs[k]).max() / max(np.abs(theirs[k]).max(), np.finfo(float).tiny))
                    for k in theirs
                )
            out["train"][f"{name}/{dtype}"] = run
    (work / f"{role}.json").write_text(json.dumps(out))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def compare(parent: Path, change: Path, toy: bool) -> dict:
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        work = Path(tmp)
        for role, tree in (("parent", parent), ("change", change)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree), str(work), role]
            subprocess.run(cmd + (["--toy"] if toy else []), check=True, env=_blas_env())
        p, c = (json.loads((work / f"{r}.json").read_text()) for r in ("parent", "change"))
        with np.load(work / "parent-eval.npz") as pa, np.load(work / "change-eval.npz") as ca:
            arrays = {what: (pa[what], ca[what]) for what in ("predict", "grad_cam")}
    result = {"parent": str(parent), "change": str(change)}
    for what, (pa, ca) in arrays.items():
        peak = max(float(np.abs(pa).max()), np.finfo(float).tiny)
        result[what] = {
            "parent": p[what], "change": c[what], "equal": p[what] == c[what],
            "max_rel": float(np.abs(ca - pa).max()) / peak,
        }
    result["train"] = {}
    for key, run in c["train"].items():
        pl, cl = p["train"][key]["losses"], run["losses"]
        result["train"][key] = {
            "steps": len(cl),
            "loss_max_rel": max(abs(a - b) / max(abs(a), 1e-300) for a, b in zip(pl, cl)),
            "state_max_rel": run["state_max_rel"],
            "bitwise": pl == cl and run["parent_state"] == run["state"],
        }
    result["equal"] = all(result[w]["equal"] for w in ("predict", "grad_cam")) and all(
        r["bitwise"] for r in result["train"].values()
    )
    return result


# ---------------------------------------------------------------------------
# Interleaved timing, both trees in one process
# ---------------------------------------------------------------------------


def _load_tree(tree: Path, tag: str):
    """Import tree's `capsroute` as package `capsroute_<tag>`, and its
    `perfbench/workloads.py` against that package; returns the workloads
    module."""
    import importlib.util

    name = f"capsroute_{tag}"
    pkg_dir = tree / "src" / "capsroute"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)

    def ours(k):
        return k == "capsroute" or k.startswith("capsroute.")

    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    sys.modules.update({"capsroute" + k[len(name):]: v for k, v in list(sys.modules.items()) if k == name or k.startswith(name + ".")})
    try:
        wspec = importlib.util.spec_from_file_location(f"workloads_{tag}", tree / "perfbench" / "workloads.py")
        wl = importlib.util.module_from_spec(wspec)
        sys.modules[wspec.name] = wl  # dataclasses look their module up there
        wspec.loader.exec_module(wl)
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    return wl


def _timed_ops(wl, workload: str) -> dict:
    """Operation kind -> (images per operation, `run(i)` for round i) of
    one tree's WORKLOAD, set up from data seed 4."""
    import numpy as np

    w = wl.WORKLOADS[workload]
    if w.kind == "train":
        st = wl.setup_train(w, DATA_SEED)
        rng = np.random.default_rng(STEP_SEED)
        return {"train_step": (wl.BATCH, lambda i: wl.train_step(st, i + 1, rng))}
    st = wl.setup_eval(w, DATA_SEED)
    chunks = [slice(j, j + wl.PREDICT_BATCH) for j in range(0, len(st.images), wl.PREDICT_BATCH)]

    def cam(i):
        img, cls, _ = st.cases[i % len(st.cases)]
        wl._cam(st.net, st.images[img, 0], cls, w.input_size)

    return {
        "predict_batch": (wl.PREDICT_BATCH, lambda i: st.net.predict(st.images[chunks[i % len(chunks)]], batch_size=wl.PREDICT_BATCH)),
        "cam_case": (1, cam),
    }


def time_ops(parent: Path, change: Path, workload: str, rounds: int) -> dict:
    import statistics
    import time

    import numpy as np

    sides = []
    for tag, tree in (("parent", parent), ("change", change)):
        ops = _timed_ops(_load_tree(tree, tag), workload)
        for _, run in ops.values():
            run(-1)  # warm-up
        sides.append((ops, {kind: [] for kind in ops}))
    for i in range(rounds):
        for ops, times in sides if i % 2 == 0 else sides[::-1]:
            for kind, (_, run) in ops.items():
                start = time.perf_counter()
                run(i)
                times[kind].append(time.perf_counter() - start)

    def summary(times, images):
        q1, med, q3 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
        return {"median_ms": float(med), "iqr_ms": float(q3 - q1), "median_img_per_s": float(images / np.median(times))}

    result = {"workload": workload, "rounds": rounds}
    (ops, tp), (_, tc) = sides
    for kind, (images, _) in ops.items():
        result[kind] = {
            "parent": summary(tp[kind], images),
            "change": summary(tc[kind], images),
            "median_paired_change": statistics.median(c / p - 1.0 for p, c in zip(tp[kind], tc[kind])),
            "change_faster_rounds": sum(c < p for p, c in zip(tp[kind], tc[kind])),
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision or directory of the parent tree")
    ap.add_argument("change", nargs="?", default=str(ROOT), help="git revision or directory (default: this tree)")
    ap.add_argument("--toy", action="store_true", help="a few desk steps and images only")
    ap.add_argument("--time", metavar="WORKLOAD", help="time interleaved operations of WORKLOAD instead")
    ap.add_argument("--rounds", type=int, default=30, help="timed rounds for --time (default 30)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="equiv-trees-") as tmp:
        parent = _tree(args.parent, Path(tmp), "parent")
        change = _tree(args.change, Path(tmp), "change")
        if args.time:
            os.environ.update(_blas_env())  # numpy, and so BLAS, loads after this
            result = time_ops(parent, change, args.time, args.rounds)
        else:
            result = compare(parent, change, args.toy)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4], "--toy" in sys.argv[5:])
    else:
        sys.exit(main())
