"""Tests for the logical-to-physical mapping."""

import pytest

from repro.migration.transforms import RotationTransform, XYShiftTransform
from repro.noc.topology import MeshTopology
from repro.placement.mapping import Mapping


class TestConstruction:
    def test_identity_mapping(self, mesh4):
        mapping = Mapping.identity(mesh4)
        for coord in mesh4.coordinates():
            task = mesh4.node_id(coord)
            assert mapping.physical_of(task) == coord
            assert mapping.task_of(coord) == task

    def test_rejects_missing_tasks(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(15)}
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_rejects_duplicate_coordinates(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(16)}
        assignment[1] = assignment[0]
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_rejects_out_of_mesh(self, mesh4):
        assignment = {task: mesh4.coordinate(task) for task in range(16)}
        assignment[0] = (7, 7)
        with pytest.raises(ValueError):
            Mapping(topology=mesh4, physical_of_task=assignment)

    def test_from_permutation_round_trip(self, mesh4):
        permutation = list(reversed(range(16)))
        mapping = Mapping.from_permutation(mesh4, permutation)
        assert mapping.to_permutation() == permutation

    def test_from_permutation_validates(self, mesh4):
        with pytest.raises(ValueError):
            Mapping.from_permutation(mesh4, [0] * 16)


class TestTransforms:
    def test_apply_transform_is_new_object(self, identity_mapping4, mesh4):
        rotated = identity_mapping4.apply_transform(RotationTransform(mesh4))
        assert rotated is not identity_mapping4
        assert rotated != identity_mapping4

    def test_apply_transform_moves_tasks(self, identity_mapping4, mesh4):
        transform = XYShiftTransform(mesh4)
        shifted = identity_mapping4.apply_transform(transform)
        for task in range(16):
            assert shifted.physical_of(task) == transform(identity_mapping4.physical_of(task))

    def test_moved_tasks_counts(self, identity_mapping4, mesh4):
        shifted = identity_mapping4.apply_transform(XYShiftTransform(mesh4))
        assert len(identity_mapping4.moved_tasks(shifted)) == 16
        assert identity_mapping4.moved_tasks(identity_mapping4.copy()) == []

    def test_moved_tasks_requires_same_mesh(self, identity_mapping4, mesh5):
        other = Mapping.identity(mesh5)
        with pytest.raises(ValueError):
            identity_mapping4.moved_tasks(other)

    def test_rotation_four_times_is_identity(self, identity_mapping4, mesh4):
        mapping = identity_mapping4
        transform = RotationTransform(mesh4)
        for _ in range(4):
            mapping = mapping.apply_transform(transform)
        assert mapping == identity_mapping4


class TestUtilities:
    def test_copy_is_independent(self, identity_mapping4):
        clone = identity_mapping4.copy()
        assert clone == identity_mapping4
        clone.physical_of_task[0] = (3, 3)
        # The original is untouched (copy made its own dict).
        assert identity_mapping4.physical_of(0) == (0, 0)

    def test_hashable(self, identity_mapping4, mesh4):
        shifted = identity_mapping4.apply_transform(XYShiftTransform(mesh4))
        assert len({identity_mapping4, identity_mapping4.copy(), shifted}) == 2

    def test_items_sorted_by_task(self, identity_mapping4):
        tasks = [task for task, _coord in identity_mapping4.items()]
        assert tasks == sorted(tasks)

    def test_getitem(self, identity_mapping4):
        assert identity_mapping4[3] == identity_mapping4.physical_of(3)
