//! Distributed vectors: data partitioned across the virtual machines.

/// A vector of items partitioned across the machines of a [`crate::Cluster`].
///
/// `parts[i]` is the local storage of machine `i`. A `DistVec` is always created and
/// transformed through cluster primitives so that the ledger sees every data
/// movement; the accessors here are read-only (plus [`DistVec::into_inner`] for
/// collecting final results).
#[derive(Clone, Debug)]
pub struct DistVec<T> {
    pub(crate) parts: Vec<Vec<T>>,
}

impl<T> DistVec<T> {
    /// Creates a distributed vector from explicit per-machine parts.
    pub(crate) fn from_parts(parts: Vec<Vec<T>>) -> Self {
        Self { parts }
    }

    /// Number of machines the vector is spread over.
    pub fn machines(&self) -> usize {
        self.parts.len()
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Whether the vector holds no items.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Number of items on machine `i`.
    pub fn load(&self, i: usize) -> usize {
        self.parts[i].len()
    }

    /// Largest per-machine load.
    pub fn max_load(&self) -> usize {
        self.parts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over all items machine by machine.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.parts.iter().flatten()
    }

    /// Read-only view of a machine's local data.
    pub fn part(&self, i: usize) -> &[T] {
        &self.parts[i]
    }

    /// Flattens the distributed vector into a single `Vec`, machine by machine.
    /// This models reading the final output off the cluster and is not charged
    /// rounds; do not use it inside an algorithm.
    pub fn into_inner(self) -> Vec<T> {
        concat(self.parts)
    }

    /// Per-machine loads.
    pub fn loads(&self) -> impl Iterator<Item = usize> + '_ {
        self.parts.iter().map(Vec::len)
    }

    /// The per-machine item counts, without the items.
    pub fn shape(&self) -> Shape {
        Shape {
            loads: self.loads().collect(),
        }
    }
}

/// The per-machine item counts of a distributed vector — all the ledger
/// observes of it. A charge-only primitive (such as
/// [`crate::Cluster::charge_map`]) takes the shape of the vector it would
/// have produced or consumed, so a step computed outside the primitives
/// charges exactly what the materialized run charges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    loads: Vec<usize>,
}

impl Shape {
    /// The shape whose machine `i` holds `loads[i]` items.
    pub fn from_loads(loads: Vec<usize>) -> Self {
        Self { loads }
    }

    /// The block distribution `volume` items take when spread over
    /// `machines` machines in equal blocks (see `Cluster::distribute`).
    pub(crate) fn balanced(volume: usize, machines: usize) -> Self {
        let machines = machines.max(1);
        let per = volume.div_ceil(machines).max(1);
        Self {
            loads: (0..machines)
                .map(|i| volume.saturating_sub(i * per).min(per))
                .collect(),
        }
    }

    /// The shape of the machine-wise concatenation of two vectors over
    /// `machines` machines (see `Cluster::concat`).
    pub(crate) fn concat(&self, other: &Shape, machines: usize) -> Self {
        let mut loads = self.loads.clone();
        let m = loads.len().max(other.loads.len()).max(machines);
        loads.resize(m, 0);
        for (load, extra) in loads.iter_mut().zip(&other.loads) {
            *load += extra;
        }
        Self { loads }
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.loads.iter().sum()
    }

    /// Whether the shape holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest per-machine load.
    pub fn max_load(&self) -> usize {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Per-machine loads.
    pub fn loads(&self) -> impl Iterator<Item = usize> + '_ {
        self.loads.iter().copied()
    }
}

/// Concatenates per-machine parts in machine order into one `Vec` sized up
/// front, moving each part with a single bulk copy.
pub(crate) fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut part in parts {
        all.append(&mut part);
    }
    all
}

impl<T> IntoIterator for DistVec<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.parts.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let dv = DistVec::from_parts(vec![vec![1, 2], vec![], vec![3]]);
        assert_eq!(dv.machines(), 3);
        assert_eq!(dv.len(), 3);
        assert!(!dv.is_empty());
        assert_eq!(dv.load(0), 2);
        assert_eq!(dv.max_load(), 2);
        assert_eq!(dv.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(dv.into_inner(), vec![1, 2, 3]);
    }
}
