"""Capsule network with dynamic routing on 1x1 convolutional layers."""

from .conv import affine_relu, batchnorm, conv2d, pool2d
from .evaluation import auc_per_class, grad_cam, iobb, localization_accuracy
from .model import NetworkConfig, baseline_variant, build_network
from .routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    conv1x1_capsule_forward,
    coupling_softmax,
    route_conv1x1_naive,
    route_fc,
    squash,
)
from .tensor import Tape, Tensor, backward, finite_diff_check
from .training import adam_step, curriculum_lambdas, margin_loss, train_epoch

__version__ = "0.1.0"
