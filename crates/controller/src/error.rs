//! Error type for the control plane.

use std::error::Error;
use std::fmt;

use nfv_model::{RequestId, VnfId};
use nfv_scheduling::SchedulingError;

/// Error returned by controller construction and ledger mutation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControllerError {
    /// The coordinates name a VNF the scenario does not deploy.
    UnknownVnf {
        /// The missing VNF.
        vnf: VnfId,
    },
    /// The coordinates name an instance index outside `0..M_f`.
    NoSuchInstance {
        /// The VNF addressed.
        vnf: VnfId,
        /// The out-of-range instance index.
        instance: usize,
    },
    /// The request is already assigned to an instance of this VNF.
    DuplicateAssignment {
        /// The VNF addressed.
        vnf: VnfId,
        /// The already-assigned request.
        request: RequestId,
    },
    /// A move named a request that no instance of this VNF holds.
    NotAssigned {
        /// The VNF addressed.
        vnf: VnfId,
        /// The unassigned request.
        request: RequestId,
    },
    /// The re-optimization scheduler failed (surfaced, never expected for
    /// non-empty live request sets).
    Scheduling(SchedulingError),
    /// An instance retirement targeted an instance that still holds
    /// requests; drain it first.
    InstanceOccupied {
        /// The VNF addressed.
        vnf: VnfId,
        /// The still-occupied instance index.
        instance: usize,
    },
    /// An instance retirement would leave the VNF with zero instances.
    LastInstance {
        /// The VNF addressed.
        vnf: VnfId,
    },
    /// A cluster handed to the controller is inconsistent with the
    /// scenario (wrong VNF set, invalid placement, …).
    ClusterMismatch {
        /// Description of the inconsistency.
        reason: &'static str,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVnf { vnf } => write!(f, "unknown {vnf}"),
            Self::NoSuchInstance { vnf, instance } => {
                write!(f, "{vnf} has no instance #{instance}")
            }
            Self::DuplicateAssignment { vnf, request } => {
                write!(f, "{request} is already assigned on {vnf}")
            }
            Self::NotAssigned { vnf, request } => {
                write!(f, "{request} is not assigned on {vnf}")
            }
            Self::Scheduling(err) => write!(f, "re-optimization failed: {err}"),
            Self::InstanceOccupied { vnf, instance } => {
                write!(f, "{vnf} instance #{instance} still holds requests")
            }
            Self::LastInstance { vnf } => {
                write!(f, "{vnf} cannot retire its last instance")
            }
            Self::ClusterMismatch { reason } => write!(f, "cluster mismatch: {reason}"),
        }
    }
}

impl Error for ControllerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Scheduling(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SchedulingError> for ControllerError {
    fn from(err: SchedulingError) -> Self {
        Self::Scheduling(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = ControllerError::NoSuchInstance {
            vnf: VnfId::new(3),
            instance: 7,
        };
        assert!(err.to_string().contains("vnf3"));
        assert!(err.to_string().contains("#7"));
        let err = ControllerError::DuplicateAssignment {
            vnf: VnfId::new(1),
            request: RequestId::new(2),
        };
        assert!(err.to_string().contains("req2"));
    }

    #[test]
    fn scheduling_errors_convert_and_chain() {
        let err: ControllerError = SchedulingError::NoInstances.into();
        assert!(matches!(err, ControllerError::Scheduling(_)));
        assert!(Error::source(&err).is_some());
    }
}
