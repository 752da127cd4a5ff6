"""The two roots of the errors raised on bad input.  The CLI exits 2 on a
ParameterError and 3 on a DomainError; every other error class in the
package is a ValueError too, so a caller can catch all of them at once."""


class ParameterError(ValueError):
    """Parameters or a key file violate the scheme's constraints."""


class DomainError(ValueError):
    """A value outside the domain it was given for: a plaintext outside
    [0, M], or a ciphertext that is not one for this key."""
