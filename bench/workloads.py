"""The four benchmark workloads.

Each workload synthesises its inputs from the seed with `iwskill.synthetic`,
writes them as the files a user would hand the CLI, and yields one CLI call
(`iwskill.cli.main(argv)`) per op. `check` decides, from the files the op
wrote, whether the op's output is right; the references it compares with are
computed here with numpy, not with the code under test.

    learn_dtw            `learn`, DTW alignment at grid_n 200; weighted and
                         unweighted ops alternate
    assimilate_stream    `assimilate` of the next placing demo into a
                         weighted or an unweighted checkpoint, 6 demos a cycle
    reproduce_free       `reproduce` with a start and a goal anchor, no scene
    reproduce_cluttered  `reproduce` from one start past the reaching disc
"""

import json
import os

import numpy as np

import iwskill.reproduction
from iwskill.batch import load_model
from iwskill.demos import DemoSet, dtw_align, estimate_states, load_raw_demo, save_raw_demo
from iwskill.environment import environment_to_dict
from iwskill.prior import GaussianTrajectoryPrior, initial_state_distribution
from iwskill.synthetic import make_placing_scene, make_reaching_scene
from iwskill.utils import write_json

from tracing import Patcher

# Amplitude of the seed-driven band noise on the demos learning ops read (m).
# The reproduce workloads learn from noise-free demos, as the reaching
# experiment does: from noisy demos the prior's 3-sigma band, and with it the
# SDF grid, can grow so far that the SDF build or LM leaving the grid (exit 2)
# dominates; see README.md.
NOISE = 0.01
# Largest relative excess of a learned interval's ridge objective over the
# lstsq oracle's. Objectives, unlike coefficients, are stable on the nearly
# interpolating fits these scenes produce (coefficients agree only to ~1e-5).
OBJECTIVE_RTOL = 1e-8
# Largest state error of an anchors-only MAP against dense conditioning, as in
# acceptance criterion 6.
MAP_ATOL = 1e-6


def _signed_distance(points: np.ndarray, env: dict) -> np.ndarray:
    """Exact distance from each point (rows) to the nearest sphere or box."""
    out = np.full(points.shape[0], np.inf)
    for obs in env["obstacles"]:
        if obs["type"] == "sphere":
            d = np.linalg.norm(points - np.asarray(obs["center"]), axis=1) - obs["radius"]
        else:
            lo, hi = np.asarray(obs["min"]), np.asarray(obs["max"])
            q = np.abs(points - (lo + hi) / 2.0) - (hi - lo) / 2.0
            d = np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(q.max(axis=1), 0.0)
        out = np.minimum(out, d)
    return out


def _weights(states: np.ndarray, env: dict, params) -> np.ndarray:
    """Importance weight of every node of every demo, shape (K, N+1)."""
    k, n1, d = states.shape
    if not env["obstacles"]:
        return np.ones((k, n1))
    dist = _signed_distance(states[:, :, : d // 2].reshape(-1, d // 2), env).reshape(k, n1)
    c = np.maximum(params.epsilon - dist, 0.0)
    return np.exp(-c * c / (2.0 * params.sigma_obs ** 2))


class RidgeOracle:
    """Per-interval weighted ridge problems over states (K, N+1, D).

    `objective(phi)` is sum_k w_k |y_k - Phi x_k|^2 + lam |Phi|_F^2 for every
    interval at once; `minimum` holds its least-squares optimum per interval.
    """

    def __init__(self, states: np.ndarray, weights: np.ndarray, lam):
        k, n1, d = states.shape
        self.x = np.concatenate([np.ones((n1 - 1, 1, k)),
                                 states[:, :-1].transpose(1, 2, 0)], axis=1)   # (N, D+1, K)
        self.y = states[:, 1:].transpose(1, 2, 0)                              # (N, D, K)
        self.w = weights[:, :-1].T                                             # (N, K)
        if lam is None:  # iwskill's default ridge: 1e-10 tr(X W X^T) / (D+1)
            lam = 1e-10 * np.einsum("nk,nak->n", self.w, self.x ** 2) / (d + 1)
        self.lam = np.broadcast_to(np.asarray(lam, dtype=float), (n1 - 1,))
        rows = []
        for i in range(n1 - 1):
            sw = np.sqrt(self.w[i])
            a = np.vstack([(self.x[i] * sw).T, np.sqrt(self.lam[i]) * np.eye(d + 1)])
            b = np.vstack([(self.y[i] * sw).T, np.zeros((d + 1, d))])
            rows.append(np.linalg.lstsq(a, b, rcond=None)[0].T)
        self.minimum = self.objective(np.stack(rows))

    def objective(self, phi: np.ndarray) -> np.ndarray:
        resid = self.y - phi @ self.x
        return (np.einsum("nk,ndk->n", self.w, resid ** 2)
                + self.lam * np.sum(phi ** 2, axis=(1, 2)))

    def excess(self, phi: np.ndarray) -> float:
        """Largest relative gap between phi's objective and the optimum."""
        return float(np.max(np.abs(self.objective(phi) - self.minimum) / self.minimum))


def _read_phi(model_path: str) -> np.ndarray:
    with open(model_path) as fh:
        steps = json.load(fh)["steps"]
    return np.array([s["Phi_tilde"] for s in steps])


def _rollout_means(phi: np.ndarray, mean0: np.ndarray) -> np.ndarray:
    """Prior mean at every node: mu_{i+1} = Phi_i [1; mu_i]."""
    means = [mean0]
    for p in phi:
        means.append(p[:, 0] + p[:, 1:] @ means[-1])
    return np.stack(means)


def _segment_deviation(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
    return float(np.max(np.linalg.norm(points - (a + t[:, None] * ab), axis=1)))


class Workload:
    """Inputs and checks for one workload in directory `root`.

    `setup` writes the inputs and fits any model the ops need; `prepare`
    builds the references `check` compares with; `argv(i)` writes op i's own
    inputs and returns its CLI arguments. Ops come in groups of `period`
    (one of each mode), and a run stops only at a group boundary.
    """

    period = 1

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.patcher = Patcher()
        os.makedirs(root, exist_ok=True)

    def close(self) -> None:
        """Undo any patch `setup` made to the program."""
        self.patcher.restore()

    def path(self, *parts) -> str:
        return os.path.join(self.root, *parts)

    def write_demos(self, raw_demos) -> list:
        names = []
        for k, demo in enumerate(raw_demos):
            names.append(f"demo_{k:03d}.json")
            save_raw_demo(self.path(names[-1]), demo)
        return names

    def write_env(self, name: str, env) -> dict:
        data = environment_to_dict(env)
        write_json(self.path(name), data)
        return data

    def setup(self, run) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def argv(self, i: int) -> list:
        raise NotImplementedError

    def check(self, i: int, code: int) -> str | None:
        raise NotImplementedError

    def quality(self) -> dict:
        return {}


class LearnDtw(Workload):
    """`learn` on the reaching scene: 8 raw demos of 200 samples, DTW-aligned
    and resampled at grid_n 200. Even ops learn weighted, odd ops unweighted."""

    period = 2
    grid_n = 200

    def setup(self, run) -> None:
        self.scene = make_reaching_scene(n_raw=200, noise=NOISE, seed=self.seed)
        self.env = self.write_env("env.json", self.scene.env)
        wp = self.scene.weight_params
        write_json(self.path("config.json"), {
            "demos": self.write_demos(self.scene.raw_demos), "environment": "env.json",
            "grid_n": self.grid_n, "align": "dtw",
            "weights": {"epsilon": wp.epsilon, "sigma_obs": wp.sigma_obs}, "out_dir": "out"})
        run(self.argv(0))

    def prepare(self) -> None:
        raw = [load_raw_demo(self.path(f"demo_{k:03d}.json"))
               for k in range(len(self.scene.raw_demos))]
        states = np.stack([estimate_states(d, self.grid_n).states for d in dtw_align(raw)])
        weights = _weights(states, self.env, self.scene.weight_params)
        self.oracle = {True: RidgeOracle(states, weights, None),
                       False: RidgeOracle(states, np.ones_like(weights), None)}
        self.mean0 = states[:, 0].mean(axis=0)
        self.last_phi = {}

    def argv(self, i: int) -> list:
        weighted = i % 2 == 0
        return (["--config", self.path("config.json"),
                 "--out", self.path("weighted" if weighted else "unweighted")]
                + ([] if weighted else ["--no-weighting"]) + ["learn"])

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        weighted = i % 2 == 0
        phi = _read_phi(self.path("weighted" if weighted else "unweighted", "model.json"))
        self.last_phi[weighted] = phi
        excess = self.oracle[weighted].excess(phi)
        if not excess <= OBJECTIVE_RTOL:
            return f"ridge objective exceeds the lstsq optimum by {excess:.3e} (relative)"
        return None

    def quality(self) -> dict:
        """Max deviation of the weighted prior mean from the start-goal
        segment over the same for the unweighted mean (lower is better)."""
        dev = {}
        for weighted, phi in self.last_phi.items():
            pos = _rollout_means(phi, self.mean0)[:, :2]
            dev[weighted] = _segment_deviation(pos, pos[0], self.scene.goal)
        return {"deviation_ratio": dev[True] / dev[False]}


class AssimilateStream(Workload):
    """`assimilate` on the placing scene at grid_n 200: 3 demos recorded
    around a box, then 3 clean ones. Ops alternate between a weighted and an
    unweighted checkpoint; both restart empty every 6 demos (12 ops)."""

    n_demos = 6
    period = 12
    grid_n = 200
    alpha = 1e10

    def setup(self, run) -> None:
        self.scene = make_placing_scene(n_raw=200, noise=NOISE, seed=self.seed)
        raw = self.scene.influenced_raw + self.scene.clean_raw
        self.envs = {"env_cluttered.json": self.write_env("env_cluttered.json",
                                                          self.scene.cluttered_env),
                     "env_clean.json": self.write_env("env_clean.json", self.scene.clean_env)}
        wp = self.scene.weight_params
        self.demo_names = self.write_demos(raw)
        write_json(self.path("config.json"), {
            "demos": self.demo_names, "grid_n": self.grid_n, "align": "none",
            "weights": {"epsilon": wp.epsilon, "sigma_obs": wp.sigma_obs},
            "alpha": self.alpha, "beta": 1e10, "out_dir": "out"})
        run(self.argv(0))
        os.remove(self.path("weighted.ckpt.json"))

    def _env_name(self, j: int) -> str:
        return "env_cluttered.json" if j < len(self.scene.influenced_raw) else "env_clean.json"

    def prepare(self) -> None:
        states = np.stack([estimate_states(load_raw_demo(self.path(n)), self.grid_n).states
                           for n in self.demo_names])
        weights = np.concatenate([_weights(states[j:j + 1], self.envs[self._env_name(j)],
                                           self.scene.weight_params)
                                  for j in range(self.n_demos)])
        # the checkpoint after j+1 demos must hold the ridge fit (lam = 1/alpha)
        # to exactly those demos
        self.oracle = {(weighted, j): RidgeOracle(states[:j + 1],
                                                  (weights if weighted else
                                                   np.ones_like(weights))[:j + 1],
                                                  1.0 / self.alpha)
                       for weighted in (True, False) for j in range(self.n_demos)}
        self.mean0 = states[:, 0].mean(axis=0)
        n_clean = len(self.scene.clean_raw)
        self.clean_mean = states[-n_clean:, :, :2].mean(axis=0)
        self.final_phi = {}

    def _op(self, i: int):
        return i % 2 == 0, (i % self.period) // 2

    def argv(self, i: int) -> list:
        weighted, j = self._op(i)
        label = "weighted" if weighted else "unweighted"
        checkpoint = self.path(f"{label}.ckpt.json")
        if j == 0 and os.path.exists(checkpoint):
            os.remove(checkpoint)
        return (["--config", self.path("config.json"), "--out", self.path(label)]
                + ([] if weighted else ["--no-weighting"])
                + ["assimilate", "--checkpoint", checkpoint,
                   "--demo", self.path(self.demo_names[j]), "--env", self.path(self._env_name(j))])

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        weighted, j = self._op(i)
        phi = _read_phi(self.path("weighted" if weighted else "unweighted", "model.json"))
        if j == self.n_demos - 1:
            self.final_phi[weighted] = phi
        excess = self.oracle[(weighted, j)].excess(phi)
        if not excess <= OBJECTIVE_RTOL:
            return (f"MAP after {j + 1} demos exceeds the batch ridge optimum "
                    f"by {excess:.3e} (relative)")
        return None

    def quality(self) -> dict:
        """L2 distance of the final weighted prior mean to the clean-demo
        mean over the same for the unweighted one (lower is better)."""
        dist = {w: float(np.linalg.norm(_rollout_means(phi, self.mean0)[:, :2]
                                         - self.clean_mean))
                for w, phi in self.final_phi.items()}
        return {"distance_ratio": dist[True] / dist[False]}


class _Reproduce(Workload):
    """Shared set-up of the reproduce workloads: the noise-free reaching
    scene, a weighted model learned once (align none), and per-op anchors
    drawn from the seed."""

    grid_n = 0

    def learn(self, run) -> None:
        self.scene = make_reaching_scene(n_raw=200, noise=0.0, seed=self.seed)
        self.write_env("env.json", self.scene.env)
        wp = self.scene.weight_params
        self.base = {"demos": self.write_demos(self.scene.raw_demos), "environment": "env.json",
                     "grid_n": self.grid_n, "align": "none",
                     "weights": {"epsilon": wp.epsilon, "sigma_obs": wp.sigma_obs},
                     "out_dir": "repro"}
        write_json(self.path("learn.json"), dict(self.base, out_dir="model"))
        run(["--config", self.path("learn.json"), "learn"], required=True)
        self.states = np.stack([estimate_states(d, self.grid_n).states
                                for d in self.scene.raw_demos])
        self.feasible, self.iterations = [], []

    def mix(self):
        """Random convex weights over the demos: anchors drawn from them
        stay in the prior's support, as a new demonstration would."""
        return self.rng.dirichlet(np.ones(self.states.shape[0]))

    def reproduce(self, reproduction: dict) -> list:
        write_json(self.path("op.json"), dict(self.base, reproduction=reproduction))
        return ["--config", self.path("op.json"), "reproduce",
                "--model", self.path("model", "model.json")]

    def solution(self) -> dict:
        with open(self.path("repro", "solution_000.json")) as fh:
            summary = json.load(fh)
        self.feasible.append(bool(summary["feasible"]))
        self.iterations.append(summary["iterations"])
        return summary

    def quality(self) -> dict:
        """Share of ops whose solution is feasible, and the median LM
        iteration count."""
        return {"feasible_frac": float(np.mean(self.feasible)),
                "lm_iterations_p50": float(np.median(self.iterations))}


class ReproduceFree(_Reproduce):
    """`reproduce` at grid_n 200 with a start and a goal anchor, both taken
    from one random mix of the demos; no obstacles, so no SDF."""

    grid_n = 200
    sigma = 1e-3  # of both anchors, per state component

    def setup(self, run) -> None:
        self.learn(run)
        run(self.argv(0))

    def prepare(self) -> None:
        prior = GaussianTrajectoryPrior(
            load_model(self.path("model", "model.json")),
            initial_state_distribution(DemoSet(demos=[
                estimate_states(load_raw_demo(self.path(n)), self.grid_n)
                for n in self.base["demos"]])))
        self.precision = prior.dense_precision()
        self.info_mean = self.precision @ prior.stacked_mean

    def argv(self, i: int) -> list:
        w = self.mix()
        start, goal = w @ self.states[:, 0], w @ self.states[:, -1]
        self.anchors = [(0, start), (self.grid_n, goal)]
        return self.reproduce({"starts": [start.tolist()], "start_sigma": self.sigma,
                               "anchors": [{"index": self.grid_n, "state": goal.tolist()}]})

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        self.solution()
        got = np.loadtxt(self.path("repro", "solution_000.csv"), delimiter=",",
                         skiprows=1)[:, 1:].reshape(-1)
        lam = self.precision.copy()
        rhs = self.info_mean.copy()
        d = self.states.shape[2]
        for index, target in self.anchors:
            sl = slice(index * d, (index + 1) * d)
            lam[sl, sl] += np.eye(d) / self.sigma ** 2
            rhs[sl] += target / self.sigma ** 2
        err = float(np.max(np.abs(got - np.linalg.solve(lam, rhs))))
        if not err <= MAP_ATOL:
            return f"MAP differs from dense conditioning by {err:.3e}"
        return None


class ReproduceCluttered(_Reproduce):
    """`reproduce` at grid_n 60 from one random start past the reaching disc,
    with tight obstacle factors (sigma_repro 0.005)."""

    grid_n = 60

    def setup(self, run) -> None:
        self.learn(run)
        self.history = None
        self._capture()
        run(self.argv(0))

    def _capture(self) -> None:
        """Keep the objective history of the last MAP solve: the solution
        JSON does not carry it."""
        original = iwskill.reproduction.optimize_map

        def optimize_map(problem):
            solution = original(problem)
            self.history = list(solution.objective_history)
            return solution

        self.patcher.replace_everywhere(original, optimize_map)

    def argv(self, i: int) -> list:
        start = self.mix() @ self.states[:, 0]
        self.history = None
        return self.reproduce({"environment": "env.json", "sigma_repro": 0.005,
                               "starts": [start.tolist()]})

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if not self.solution()["converged"]:
            return "solution not converged"
        h = self.history
        if not h or any(b > a for a, b in zip(h, h[1:])):
            return "objective history missing or increasing"
        return None


WORKLOADS = {
    "learn_dtw": LearnDtw,
    "assimilate_stream": AssimilateStream,
    "reproduce_free": ReproduceFree,
    "reproduce_cluttered": ReproduceCluttered,
}
