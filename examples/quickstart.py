#!/usr/bin/env python3
"""Quickstart: solve location discovery on a ring of bouncing agents.

Eight anonymous-looking agents sit at unknown positions on a circle;
some of them even disagree about which way is clockwise.  They cannot
talk, see, or leave marks -- they can only move, bounce, and measure how
far each round carried them.  This script drives the paper's full
pipeline through :class:`repro.RingSession`, the library's single entry
point: build a session, ask the registry what it plans to run, then
execute phase by phase and inspect what each agent learned.

Run:  python examples/quickstart.py
"""

from fractions import Fraction

from repro import Model, RingSession


def main() -> None:
    n = 8
    session = RingSession(n=n, model=Model.PERCEPTIVE, seed=2024)
    state = session.state
    print(f"ring with n={n} agents, ID space [1, {state.id_bound}], "
          f"backend={session.backend_name}")
    print("true positions (hidden from agents):")
    for i in range(n):
        chir = "cw " if int(state.chiralities[i]) == 1 else "ccw"
        print(f"  agent id={state.ids[i]:3d}  pos={state.positions[i]}  "
              f"sense={chir}")

    # The registry plans the phase pipeline for this setting before a
    # single round runs; stepping executes one phase at a time.
    phases = session.start("location-discovery")
    print(f"\nplanned phases: {[p.name for p in phases]}")
    for _ in range(len(phases)):
        name, rounds = session.step()
        print(f"  ran {name:22s} {rounds:5d} rounds")
    result = session.resume()  # collects the final result

    print(f"\nsolved in {result.rounds} rounds")
    print(f"  (discovery itself took n/2 + 3 = {n // 2 + 3} rounds -- half "
          "of what dist()-only agents would need)")

    print("\nagent 0's reconstructed ring (gaps from itself, common frame):")
    gaps = result.gaps_by_agent[0]
    position = Fraction(0)
    for k, gap in enumerate(gaps):
        print(f"  +{k} places: at {position} (next gap {gap})")
        position += gap
    assert position == 1, "gaps must close the circle"

    # Omniscient check: the reconstruction matches the true gaps.
    true_gaps = state.initial_gaps()
    forward = [true_gaps[k % n] for k in range(n)]
    backward = [true_gaps[(-1 - k) % n] for k in range(n)]
    assert gaps in (forward, backward)
    print("\nreconstruction verified against ground truth ✓")


if __name__ == "__main__":
    main()
