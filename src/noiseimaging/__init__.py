"""Twin-beam noise imaging simulator.

Closed-form noise of squeezed pairs behind loss, binary mask/LO scenes on a
pixel grid, spectrum-analyzer trace statistics, and the estimation pipeline
comparing classical (single-beam excess noise) against quantum (twin-beam
difference noise) imaging sensitivity.
"""

__version__ = "0.1.0"
