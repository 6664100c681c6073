"""Data Collection Module (paper Fig. 5, first box).

WiMi works on *paired* captures: a baseline trace recorded with the empty
beaker on the LoS, and a target trace recorded after the liquid is poured
in.  The :class:`DataCollector` reproduces the paper's protocol:

* One collector = one *deployment*: a single multipath realisation shared
  by every session it records, exactly like the paper's 20 repetitions per
  material captured in one static room.
* Per session, the room drifts slightly (each reflected ray's phase moves
  by the environment's ``session_drift_rad``) and the beaker is
  repositioned within a small tolerance (``offset_jitter``) -- the two
  sources of repetition-to-repetition variation.
* Within a session, the baseline and target traces share the drifted
  channel (they are recorded seconds apart); per-packet temporal fading
  and all hardware impairments are drawn independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.materials import AIR, Material
from repro.csi.impairments import HardwareProfile
from repro.csi.model import CsiTrace
from repro.csi.simulator import CsiSimulator, SimulationScene


@dataclass(frozen=True)
class SessionConfig:
    """How much data one capture session records.

    Attributes:
        num_packets: Packets per trace (paper default 20; Fig. 18 sweeps
            3..30).
        baseline_material: What fills the beaker during the baseline
            capture.  The paper uses the *empty* (air-filled) beaker, which
            is what makes the container wall cancel out (Fig. 20).
        target_motion_std: Per-packet lateral sloshing of the liquid
            during the *target* capture (metres).  0 = the paper's static
            protocol; >0 exercises the Discussion-section limitation.
    """

    num_packets: int = 20
    baseline_material: Material = field(default_factory=lambda: AIR)
    target_motion_std: float = 0.0

    def __post_init__(self) -> None:
        if self.num_packets < 1:
            raise ValueError(
                f"num_packets must be >= 1, got {self.num_packets}"
            )
        if self.target_motion_std < 0:
            raise ValueError(
                f"target_motion_std must be >= 0, got "
                f"{self.target_motion_std}"
            )


@dataclass
class CaptureSession:
    """One paired baseline/target measurement.

    Attributes:
        baseline: CSI with the empty beaker on the LoS.
        target: CSI with the liquid poured in.
        material_name: Ground-truth label of the liquid.
        scene: The deployment this session was captured in.
    """

    baseline: CsiTrace
    target: CsiTrace
    material_name: str
    scene: SimulationScene

    def __post_init__(self) -> None:
        if len(self.baseline) == 0 or len(self.target) == 0:
            raise ValueError("capture session traces must be non-empty")
        if self.baseline.num_antennas != self.target.num_antennas:
            raise ValueError(
                "baseline and target traces disagree on antenna count: "
                f"{self.baseline.num_antennas} vs {self.target.num_antennas}"
            )
        if self.baseline.num_subcarriers != self.target.num_subcarriers:
            raise ValueError(
                "baseline and target traces disagree on subcarrier count: "
                f"{self.baseline.num_subcarriers} vs "
                f"{self.target.num_subcarriers}"
            )

    @property
    def num_antennas(self) -> int:
        """Receive antennas in this session."""
        return self.baseline.num_antennas

    def truncated(self, num_packets: int) -> "CaptureSession":
        """Session limited to the first ``num_packets`` packets per trace."""
        return CaptureSession(
            baseline=self.baseline.subset(num_packets),
            target=self.target.subset(num_packets),
            material_name=self.material_name,
            scene=self.scene,
        )


class DataCollector:
    """Runs paired baseline/target capture sessions in one deployment.

    Args:
        scene: The deployment layout (must include a target container).
        profile: Hardware impairment profile of the simulated NIC.
        rng: Seed or generator for everything random.
        offset_jitter: Half-width (metres) of the uniform repositioning of
            the beaker's lateral offset between sessions.  The material
            feature is size/position independent, so this exercises that
            invariance rather than hurting accuracy.
    """

    def __init__(
        self,
        scene: SimulationScene,
        profile: HardwareProfile | None = None,
        rng: np.random.Generator | int | None = None,
        offset_jitter: float = 0.0015,
    ):
        if scene.target is None:
            raise ValueError(
                "DataCollector needs a scene with a target container"
            )
        if offset_jitter < 0:
            raise ValueError(
                f"offset_jitter must be >= 0, got {offset_jitter}"
            )
        self.scene = scene
        self.profile = profile if profile is not None else HardwareProfile()
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.offset_jitter = offset_jitter
        # The deployment's multipath realisation: fixed for the lifetime of
        # this collector, drifted slightly per session.
        self.channel = scene.environment.build_channel(scene.geometry, self.rng)

    def _session_scene(self) -> SimulationScene:
        """Scene with the beaker repositioned for one session."""
        if self.offset_jitter == 0.0:
            return self.scene
        target = self.scene.target
        jitter = self.rng.uniform(-self.offset_jitter, self.offset_jitter)
        return replace(
            self.scene,
            target=replace(target, lateral_offset=target.lateral_offset + jitter),
        )

    def collect(
        self, material: Material, config: SessionConfig | None = None
    ) -> CaptureSession:
        """Capture one paired session for ``material``."""
        config = config if config is not None else SessionConfig()
        scene = self._session_scene()
        drifted = self.channel.with_phase_drift(
            self.rng, scene.environment.session_drift_rad
        )
        simulator = CsiSimulator(
            scene, self.profile, rng=self.rng, channel=drifted
        )
        baseline = simulator.capture(
            config.baseline_material,
            config.num_packets,
            label=f"baseline/{config.baseline_material.name}",
        )
        target = simulator.capture(
            material,
            config.num_packets,
            label=f"target/{material.name}",
            motion_std_m=config.target_motion_std,
        )
        return CaptureSession(
            baseline=baseline,
            target=target,
            material_name=material.name,
            scene=scene,
        )

    def collect_many(
        self,
        material: Material,
        repetitions: int,
        config: SessionConfig | None = None,
    ) -> list[CaptureSession]:
        """Capture ``repetitions`` independent sessions (paper: 20 per
        material)."""
        if repetitions < 0:
            raise ValueError(f"repetitions must be >= 0, got {repetitions}")
        return [self.collect(material, config) for _ in range(repetitions)]
