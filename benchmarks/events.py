"""Event-stream blocks: the four per-event configurations and the attempt block.

A block spec is a plain dict, so the same block can run in the benchmark
process or in a traced child.  The only library names used are the
samplers ``iter_heralded_events`` and ``simulate_attempts``, the
parameter dataclasses and ``MeasurementSetting``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

EVENTS_PER_BLOCK = 2000  # the paper's recorded-event count per setting
ATTEMPTS_PER_BLOCK = 10_000_000
WERNER_P = 0.82667  # overlap 0.87 with the ideal pair

# kind -> (werner_p, pulse mode, experiment-like readout with PMT 2 at 0.8, dark probability)
KINDS = {
    "pure": (1.0, "two_pulse", False, 0.0),
    "mixed": (WERNER_P, "two_pulse", True, 0.0),
    "single_pulse": (WERNER_P, "single_pulse", True, 0.0),
    "dark": (WERNER_P, "two_pulse", True, 1e-5),
    "attempts": (WERNER_P, "two_pulse", True, 1e-5),
}
WERNER_KINDS = ("mixed", "single_pulse", "dark")

# (theta_atom, theta_photon) of the harness's eight settings, in units of pi
SETTINGS_PI = [(a, b) for a in (0.0, 0.5) for b in (0.25, 0.75)] + [
    (a, b) for a in (0.25, 0.75) for b in (0.0, 0.5)
]


def block_specs(rng: random.Random) -> list[dict]:
    """One block of every kind, with settings, PMT roles and seeds drawn from rng."""
    specs = []
    for kind in KINDS:
        theta_atom, theta_photon = rng.choice(SETTINGS_PI)
        specs.append(
            {
                "kind": kind,
                "theta_atom_pi": theta_atom,
                "theta_photon_pi": theta_photon,
                "swapped": rng.random() < 0.5,
                "seed": rng.getrandbits(63),
            }
        )
    return specs


def run_block(spec: dict) -> dict:
    """Run one block; the timed region covers sampling only, not tallying."""
    import numpy as np

    from bellsim.protocol import (
        DetectorParams,
        PulseSequence,
        SourceParams,
        iter_heralded_events,
        simulate_attempts,
    )
    from bellsim.states import MeasurementSetting

    werner_p, mode, experiment_like, dark = KINDS[spec["kind"]]
    source = SourceParams(werner_p=werner_p)
    det = DetectorParams()
    if experiment_like:
        det = replace(DetectorParams.experiment_like(), pmt_efficiency_2=0.8)
    det = replace(
        det,
        dark_event_probability=dark,
        waveplate_angle=math.pi / 4 if spec["swapped"] else 0.0,
    )
    pulse = PulseSequence(mode=mode, rotation_theta=spec["theta_atom_pi"] * math.pi)
    photon = MeasurementSetting(spec["theta_photon_pi"] * math.pi)
    rng = np.random.default_rng(spec["seed"])

    start = time.perf_counter()
    if spec["kind"] == "attempts":
        events = simulate_attempts(ATTEMPTS_PER_BLOCK, source, pulse, photon, det, rng)
    else:
        events = list(iter_heralded_events(EVENTS_PER_BLOCK, source, pulse, photon, det, rng))
    seconds = time.perf_counter() - start

    counts = [[0, 0], [0, 0]]
    for event in events:
        counts[event.atom_outcome][event.photon_outcome] += 1
    indices = [event.attempt_index for event in events]
    return {
        "kind": spec["kind"],
        "seconds": seconds,
        "events": len(events),
        "requested": EVENTS_PER_BLOCK,
        "n_attempts": ATTEMPTS_PER_BLOCK if spec["kind"] == "attempts" else None,
        "attempts": indices[-1] + 1 if indices else 0,
        "indices_increasing": all(a < b for a, b in zip(indices, indices[1:])),
        "counts": counts,
        # The oracle reads the numbers the program was given, from the objects it got.
        "oracle": {
            "werner_p": source.werner_p,
            "theta_atom": pulse.rotation_theta,
            "theta_photon": photon.theta,
            "single_pulse": mode == "single_pulse",
            "pmt_efficiency": (det.pmt_efficiency_1, det.pmt_efficiency_2),
            "bright_error": det.atom_bright_error,
            "dark_error": det.atom_dark_error,
            "dark_event_probability": det.dark_event_probability,
            "swapped": spec["swapped"],
            "success_probability": source.excitation_probability
            * source.collection_efficiency
            * source.detector_quantum_efficiency,
            "excitation_window": source.excitation_window,
            "microwave_frequency": pulse.microwave_frequency,
        },
    }
