"""Model registry mapping the paper's architecture names to template builders."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.models.densenet import build_densenet121_template
from repro.models.mobilenet import build_mobilenetv2_template
from repro.models.resnet import build_resnet18_template
from repro.models.single_block import build_single_block_template
from repro.models.specs import NetworkTemplate

_BUILDERS: Dict[str, Callable[..., NetworkTemplate]] = {
    "resnet18": build_resnet18_template,
    "densenet121": build_densenet121_template,
    "mobilenetv2": build_mobilenetv2_template,
    "single_block": build_single_block_template,
}

_ALIASES: Dict[str, str] = {
    "resnet": "resnet18",
    "resnet-18": "resnet18",
    "densenet": "densenet121",
    "densenet-121": "densenet121",
    "mobilenet": "mobilenetv2",
    "mobilenet-v2": "mobilenetv2",
    "mobilenet_v2": "mobilenetv2",
    "singleblock": "single_block",
    "single-block": "single_block",
}


def available_models() -> List[str]:
    """Names of the architecture templates the registry can build."""
    return sorted(_BUILDERS)


def get_template(name: str, **kwargs) -> NetworkTemplate:
    """Build the template called ``name`` (paper naming) with optional overrides.

    ``kwargs`` are forwarded to the underlying builder, e.g.
    ``get_template("resnet18", input_channels=2, num_classes=11, width_multiplier=0.5)``.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return _BUILDERS[key](**kwargs)
