//! Error type for geometry construction and queries.

use std::fmt;

/// Errors produced while constructing or querying geometric primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A rectangle was constructed with non-positive width or height.
    DegenerateRect {
        /// Width that was requested.
        width: f64,
        /// Height that was requested.
        height: f64,
    },
    /// A polygon needs at least three vertices.
    TooFewVertices {
        /// Number of vertices supplied.
        got: usize,
    },
    /// A polygon is self-intersecting and therefore not simple.
    SelfIntersecting {
        /// Index of the first offending edge.
        first_edge: usize,
        /// Index of the second offending edge.
        second_edge: usize,
    },
    /// A coordinate was not finite (NaN or infinite).
    NonFiniteCoordinate {
        /// The offending value.
        value: f64,
    },
    /// A uniform grid was constructed with a non-positive cell size.
    InvalidCellSize {
        /// The offending cell size.
        cell: f64,
    },
    /// A polygon could not be decomposed into rectangles because it is not
    /// rectilinear (axis-aligned edges only).
    NotRectilinear,
    /// A uniform grid's bounds span more than
    /// [`crate::grid::MAX_GRID_CELLS`] cells.
    GridTooLarge {
        /// The cells the bounds span (counted in `f64`, so possibly
        /// infinite).
        cells: f64,
        /// The cell size.
        cell: f64,
    },
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::DegenerateRect { width, height } => {
                write!(f, "degenerate rectangle ({width} x {height})")
            }
            GeomError::TooFewVertices { got } => {
                write!(f, "polygon needs at least 3 vertices, got {got}")
            }
            GeomError::SelfIntersecting {
                first_edge,
                second_edge,
            } => write!(
                f,
                "polygon is self-intersecting (edges {first_edge} and {second_edge})"
            ),
            GeomError::NonFiniteCoordinate { value } => {
                write!(f, "non-finite coordinate: {value}")
            }
            GeomError::InvalidCellSize { cell } => {
                write!(f, "uniform grid cell size must be positive, got {cell}")
            }
            GeomError::NotRectilinear => {
                write!(f, "polygon is not rectilinear and cannot be decomposed")
            }
            GeomError::GridTooLarge { cells, cell } => write!(
                f,
                "uniform grid of {cells:.3e} cells of {cell} m exceeds the limit of {} cells",
                crate::grid::MAX_GRID_CELLS
            ),
        }
    }
}

impl std::error::Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GeomError::DegenerateRect {
            width: 0.0,
            height: 2.0,
        };
        assert!(e.to_string().contains("degenerate"));
        let e = GeomError::TooFewVertices { got: 2 };
        assert!(e.to_string().contains("3 vertices"));
        let e = GeomError::SelfIntersecting {
            first_edge: 1,
            second_edge: 3,
        };
        assert!(e.to_string().contains("self-intersecting"));
        let e = GeomError::NonFiniteCoordinate { value: f64::NAN };
        assert!(e.to_string().contains("non-finite"));
        let e = GeomError::InvalidCellSize { cell: -1.0 };
        assert!(e.to_string().contains("cell size"));
        assert!(GeomError::NotRectilinear
            .to_string()
            .contains("rectilinear"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&GeomError::NotRectilinear);
    }
}
