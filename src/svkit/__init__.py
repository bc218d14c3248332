"""Desk-scale speaker verification toolkit.

Pipeline: waveforms -> upstream layer stacks -> learnable weighted layer
aggregation -> ECAPA-TDNN embeddings -> AAM-softmax training -> cosine /
adaptive s-norm / calibration / ensemble scoring -> EER.
"""

__version__ = "0.1.0"
