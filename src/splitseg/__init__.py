"""Split semantic-segmentation link simulator.

A miniature three-branch segmentation network is cut after its fifth stage:
the transmitter runs stages 0-5 and ships the quantized low-resolution
feature map over a modeled QPSK/16QAM AWGN link; the receiver runs the
pyramid-pooling stage and the classification head. The package accounts for
payload bits, transmitter/receiver multiply-accumulates, and segmentation
fidelity across SNR, against two baselines: raw-image transmission and full
segmentation at the transmitter.
"""

__version__ = "0.1.0"

from .model import (
    ModelConfig,
    SegmentationMap,
    WeightSet,
    build,
    describe,
    forward_full,
    forward_receiver,
    forward_transmitter,
    load_weights,
    mac_count,
    save_weights,
)
from .codec import (
    BitStream,
    FeaturePayload,
    decode_image,
    decode_labelmap,
    dequantize_features,
    deserialize_payload,
    encode_image,
    encode_labelmap,
    quantize_features,
    serialize_payload,
)
from .phy import (
    QAM16,
    QPSK,
    ChannelConfig,
    SymbolBlock,
    apply_awgn,
    ber_theoretical,
    demodulate,
    modulate,
    transmit,
)
from .metrics import (
    ComputeReport,
    RateReport,
    bitrate_mbps,
    bits_per_image,
    compute_report,
    confusion,
    miou,
    rate_report,
)
from .experiments import (
    ConfigError,
    ExperimentSpec,
    SweepResult,
    load_spec,
    read_csv,
    run,
    run_full_tx,
    run_split,
    run_traditional,
    sweep,
    write_csv,
)
from .dataio import generate_synthetic, load_dataset_dir, write_dataset
from .plotting import render_plot
