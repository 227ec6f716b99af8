"""Golden gate for the CLI: the SHA-256 of stdout and the exit code of a fixed
set of small invocations, covering every command, method, scheme and
(scheme, figure) pair plus a few malformed inputs.

A refactor must leave every entry unchanged.  After an intended output
change, re-record with ``PYTHONPATH=src python tests/test_cli_golden.py``,
paste the printed table over ``GOLDEN`` and name the changed entries in
CHANGES.md.  ``verify``'s seconds column is masked before hashing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from fractions import Fraction

import pytest

from portcap.cli import build_parser, main
from portcap.performance import psucc_qubit

GOLDEN = [
    ("fidelity --method exact --N 5 --k 2", 0, "157ab4532d7e44f95e52199df72e9f9b4fa9131b860de435f645c60aa6253685"),
    ("fidelity --method exact --N 6 --k 2 --d 3", 0, "f0302015914f898f3b3908be29a009c1fdaa90f4e27a9b5c9f007802bd80754f"),
    ("fidelity --method exact --N 6 --k 2 --d 3 --format json", 0, "cd77322b50bec14b7b874d2711253e7e9bd426cdd96b3bef0cd755850babd08b"),
    ("fidelity --method exact --N 40 --k 8 --d 3", 0, "0640ef10cf1df7f2c4cdfd7fe10eddfc879dccff06d9f9bdf04a3f065ef85bf5"),
    ("fidelity --method qubit --N 20 --k 3", 0, "3cca61cb5c8a36a3ea82f23d1d08bdaf4224e5ad3456b72aaa9ba1a6da5e506c"),
    ("fidelity --method qubit --N 20 --k 3 --arith exact", 0, "3cca61cb5c8a36a3ea82f23d1d08bdaf4224e5ad3456b72aaa9ba1a6da5e506c"),
    ("fidelity --method qubit --N 20 --k 3 --arith log", 0, "20947dab00b363b843eb6f9d8161aa6415ede0b08e9d1796593ed09bd2aeb0d1"),
    ("fidelity --method qubit --N 301 --k 5", 0, "a3a252a8b21866276dc08e2aa2f901ad0f06955d4b57d43c7e19b9020eeaba7a"),
    ("fidelity --method qubit --N 301 --k 5 --format json", 0, "e06326c78ac6db54f581dc9db5c7ca48f3b7657bb59fa2b9904ead7a806625ee"),
    ("fidelity --method qubit --arith log --N 1100 --k 1001", 0, "c6e7ef3ab9911362785d9c77bb1cd75b4ec6b5bd355dfbd79cf9a9d214ef68d7"),
    ("fidelity --method qubit --arith log --N 1000000 --k 1000", 0, "bc0ab281d58efc6d10e1a7abadd71c5efc56a70a8de37d0f66849e5dc86c9ca3"),
    ("fidelity --method qubit --arith exact --N 240 --k 6", 0, "6260a1f2a434d43717befbad10a76cd58eb8730cbba557a8455a0f008933989b"),
    ("fidelity --method bound-ratio --N 10 --k 3", 0, "95f6629c24216f7933947d5e4c13483a3bf61796494e302d0b9084fde790dae5"),
    ("fidelity --method bound-ratio --N 9 --k 2 --d 3", 0, "3bf9165b2a1f7254c55ebd768fe06d697430a051d13de0c1a861a9d79d93c418"),
    ("fidelity --method bound-product --N 10 --k 3", 0, "5a141de67f15549a01ab243e37aba9343fb0ca49fd535f3c82776297a8c2e03b"),
    ("fidelity --method bound-product --N 9 --k 2 --d 3", 0, "3dc944c0081b28524945845ce7f666da987d900b9a129d8b323c1fd29731d0b7"),
    ("fidelity --method bound-bernoulli --N 10 --k 3", 0, "f269cadd87e4975a15c2ca96e804fc1a6362fe5d737c1d6c0e2d418179f706cb"),
    ("fidelity --method bound-bernoulli --N 9 --k 4 --d 3", 0, "62e1e8f8c6cb065759f6e01b5d9e82e1bba9e686ac8051a95a6fdfcae7ae4fed"),
    ("fidelity --method oracle --N 2 --k 1 --d 2", 0, "59ed3281af6cab24b1aa572be6197fee625d12b0d1d69787f1bd171400ffe1ce"),
    ("fidelity --method oracle --N 3 --k 1 --format json", 0, "dc79a59b9df16ccc87690fe5e868766dd5e2f211a2a879c2945213b0278744a5"),
    ("psucc --scheme mpbt --N 10 --k 2", 0, "ca3194de8d2e7420e9e02fa3e58fd593e76219ec6bcc200e3e2b92ae41211153"),
    ("psucc --scheme mpbt --N 10 --k 2 --arith exact", 0, "ca3194de8d2e7420e9e02fa3e58fd593e76219ec6bcc200e3e2b92ae41211153"),
    ("psucc --scheme mpbt --N 10 --k 2 --arith log", 0, "903e98d6be298caf03400a37bf6fe8eb4b386594f51bc80d91c50572e28e3e98"),
    ("psucc --scheme mpbt --N 301 --k 5", 0, "6ff3994205135e9cc547a9f7598fc5e363363b2c752ced6d3048cd3dd0c12701"),
    ("psucc --scheme mpbt --N 8 --k 2 --d 3", 0, "50cc8c1bd44dc4b6ba8958b82dc61b0b2c031bc22bcf23f9915b67de91583e58"),
    ("psucc --scheme mpbt --N 8 --k 2 --d 3 --format json", 0, "e2c911d0a68bb31bdc0fb13e7df11446420b3f70548ec16e7a6b66378ca766c7"),
    ("psucc --scheme mpbt --N 201 --k 1 --d 3", 0, "771725a52e61a1cb66085e1d4a04478f183e37462e91256dedfa51ffc1b018e6"),
    ("psucc --scheme mpbt --N 201 --k 1 --d 3 --arith exact", 0, "771725a52e61a1cb66085e1d4a04478f183e37462e91256dedfa51ffc1b018e6"),
    ("psucc --scheme mpbt --N 300 --k 1 --d 3", 0, "554c4dcb0052ea606c60ad24b48910dd70aabe43dc966c0caf6c3a7b4f159f24"),
    ("psucc --scheme mpbt --N 30 --k 6 --d 4", 0, "6625ecccfbf29d334f7b113349968aff6aa077441910c1d086879b898051d24d"),
    ("psucc --N 30000 --k 2 --arith exact", 0, "7c336de592813bfa64d7977e8477b6e8b896b0a0c340dbea99e15a4afd6d5934"),
    ("psucc --scheme ompbt --N 10 --k 3", 0, "0e43cab624fc9671df49e475afd574f439b93327267286027276b05f992022fc"),
    ("psucc --scheme ompbt --N 10 --k 3 --d 3", 0, "63df38e7897b097b14d43210d7e9c77954f80288a676dae06ee03dac16470a7b"),
    ("psucc --scheme ompbt --N 3 --k 5", 0, "346f24ce5f1371f7517952ac6c779d4920bb037e5f784b470e39f504f6c466da"),
    ("psucc --scheme opbt --N 10", 0, "761e16f0b149c746d4272663f8499b8a706ce09df2d94fa2fc1edcca1f7d4183"),
    ("psucc --scheme pbt-approx --N 10", 0, "9ffde7cda164502ca584fe966c7df67bf4e5f7fe75dc321e4ce663bb36a34159"),
    ("psucc --scheme pbt-approx --N 10 --format json", 0, "8975ff41b37aaa42d9fca0636791e72fd3d11f96a35db9b1d6c40bac9de13a27"),
    ("compare --k-list 4,6,8 --N-range 8:60:4", 0, "5f0afa142cc3f2bd6128b09ddf02dce1eeac5081f8698cbb8bbd21d183b02585"),
    ("compare --k-list 4,6,8 --N-range 8:60:4 --format json", 0, "92bc441c69edf4b4a2e1a197b96a4376686f3b6af7e6a1ae52c3fc43b8ee7207"),
    ("compare --k-list 4,6,8 --N-range 8:60:4 --strict-packaging true", 0, "df552fcfa44f3eafabe7582e4b7c706f8501ea08c9496158ab980dc174ccf9bb"),
    ("compare --k-list 4,6,8 --N-range 8:60:4 --strict-packaging true --format json", 0, "160f5518888338625d79cd4fb4a2a16aa2ab5465b2e106f80974fd92430ceba3"),
    ("compare --k-list 4,6,8 --N-range 8:60:4 --strict-packaging false", 0, "5f0afa142cc3f2bd6128b09ddf02dce1eeac5081f8698cbb8bbd21d183b02585"),
    ("compare --k-list 4,6,8 --N-range 100:200:4", 0, "994bcee143e86ffda53670fb79bd51b6038d40dd48f3fd76ed7a61edeb6e1ffe"),
    ("compare --k-list 2,5,12 --N-range 4:16:3", 0, "cbc5c86515234f0428f0a5ec778dc6fda29002b65860c963e93b2b8e7b4eca0f"),
    ("compare --k-list 2,5,12 --N-range 4:16:3 --strict-packaging true", 0, "99ed41b4b30ae87c4d3882d349ec21092d2d42a544814a0c61dd85db85d2b7f3"),
    ("compare --k-list 4,6,8 --N-range 300:600:61 --arith log", 0, "b094e2a0e7a4d0087293a789bb46f4c20eb4395dbbaaefbc2d89dd66b890d782"),
    ("compare --k-list 4 --N-range 544:544", 0, "642812acefc862390ce36b9bd01c43cbc0902c8680e319cf99e0eceee1f9c144"),
    ("compare --k-list 4 --N-range 544:544 --strict-packaging true", 0, "642812acefc862390ce36b9bd01c43cbc0902c8680e319cf99e0eceee1f9c144"),
    ("compare --k-list 3,4 --N-range 12:24:6 --d 3", 0, "817377fdce76ac5ce1a59aed67dcfc47b6f1c50d5278a043ba9f35c54bfdac50"),
    ("asympt --scheme pack-pbt --figure fidelity --a 1.0 --alpha 0.5 --N-list 100,400,1600", 0, "8f2cea756b5ebf7b459438c597570818600225b752fcd3224573364f42107bcd"),
    ("asympt --scheme pack-pbt --figure fidelity --a 2.0 --alpha 1.2 --N-list 10,20", 0, "7154bba3f57b188ce9243f8b5fb4b9b7e6e41b3e457148919fb9bd9b92e5fc55"),
    ("asympt --scheme pack-pbt --figure psucc --a 1.0 --alpha 0.3333333333333333 --N-range 100:1000:300", 0, "1d28380967e8b0b1fd289783c061336efd5c9cd076d1be9a74b6ef88375f734e"),
    ("asympt --scheme pack-pbt --figure psucc --a 2.0 --alpha 1.2 --N-list 10,20", 0, "7154bba3f57b188ce9243f8b5fb4b9b7e6e41b3e457148919fb9bd9b92e5fc55"),
    ("asympt --scheme pack-opbt --figure fidelity --a 0.5 --alpha 0.6666666666666666 --N-list 100,1000,10000", 0, "a0177b0e5c8c219664bd13d622b9f963067a13171590c955738188e3df3b6783"),
    ("asympt --scheme pack-opbt --figure fidelity --a 2.0 --alpha 1.2 --N-list 10,20", 0, "092e4e194e3924984bd1180d73169815dee0d824230f6186ffb17342e62f227d"),
    ("asympt --scheme pack-opbt --figure psucc --a 1.0 --alpha 0.5 --N-list 100,1000", 0, "8819f27812aa124ca1b6837aa88cf31b695235a73f617e3b9e0133e1f6fd4893"),
    ("asympt --scheme pack-opbt --figure psucc --a 2.0 --alpha 1.2 --N-list 10,20", 0, "46d148ebf33d18abaf95b0b30e3e036df678fea12befc6bb181be66150954d32"),
    ("asympt --scheme mpbt-bound --figure fidelity --a 0.25 --alpha 1.0 --N-list 40,80 --d 3", 0, "bc88b87fe80ce0d8d3bbe187c47426305c87405cb90c00c32502e10fef12ee48"),
    ("asympt --scheme mpbt-bound --figure fidelity --a 1.0 --alpha 0.5 --N-list 100,400", 0, "86a551f6f27a2f9bb7d6c8434e36de724b4f0db0c2751feba488ff90e71d93f8"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha 0.5 --N-list 100,400,1600", 0, "48efae4ebced738ba670b697587846214ef8af258ec0509b72e29531fb3efdd7"),
    ("asympt --scheme mpbt --figure psucc --a 0.5 --alpha 0.7 --N-range 100:400:100 --format json", 0, "4c44a9352b8867c2c823cf6b2ceeb720a6dc04031a11820a5af3a058fde1bb9c"),
    ("asympt --scheme ompbt --figure psucc --a 0.5 --alpha 1.0 --N-list 10,100,1000", 0, "0e9b12ec18c8a905a72703d07181690c34caa878f6a1dfe1a0f9d4b7a9777907"),
    ("asympt --scheme ompbt --figure psucc --a 2.0 --alpha 1.2 --N-list 10,20", 0, "7154bba3f57b188ce9243f8b5fb4b9b7e6e41b3e457148919fb9bd9b92e5fc55"),
    ("asympt --scheme ompbt --figure psucc --a 0.5 --alpha 1.0 --N-list 10,100 --d 3 --format json", 0, "ea483cb94cce120f378d20f011536a948e02af1a78a4e44ee3f390c327c6a046"),
    ("gauss --a 0.5 --N-range 100:400:100", 0, "0d695bbca80c566c89778b4d58aff7b732b7913145e4f489a74461652d2a9dc1"),
    ("gauss --a 0.5 --N-range 100:400:100 --arith exact", 0, "0d695bbca80c566c89778b4d58aff7b732b7913145e4f489a74461652d2a9dc1"),
    ("gauss --a 0.5 --N-range 100:400:100 --arith log", 0, "0d695bbca80c566c89778b4d58aff7b732b7913145e4f489a74461652d2a9dc1"),
    ("gauss --a 0.75 --N-range 101:301:100 --format json", 0, "9842275a909705728425a8e4fc8274755d0e23e361852c275e5d556c13c758bc"),
    ("verify --max-dim 64", 0, "f393dd3b13cc2ffc339af33a4538b9fa5491ec84ebfc4f305bd8dbe43c41ea97"),
    ("verify --max-dim 1024", 0, "0e70d9b4ffa050b2ce6efd615b2bb78499daa0d2aa82a4a93cf07700d496fcdd"),
    ("compare --k-list 4 --N-range 9:3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 4 --N-range 9", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 4 --N-range 8:16 --strict-packaging yes", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method bound-ratio --N 3 --k 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method qubit --N 4 --k 1 --d 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method exact --N 4 --k 5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --N 100000 --k 50000", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme mpbt --N 4 --k 1 --d 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme opbt --N 5 --k 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure fidelity --a 1.0 --alpha 0.5 --N-list 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt-bound --figure fidelity --a 1.0 --alpha 1.2 --N-list 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 2.0 --alpha 1.2 --N-list 10,20", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1 --alpha 0.5 --N-list 100 --arith exact", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme pack-pbt --figure psucc --a 0.1 --alpha 0.5 --N-list 4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme pack-pbt --figure psucc --a 1.0 --alpha 0.5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gauss --a 2.5 --N-range 100:200:100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --max-dim 8192", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --max-dim -5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --max-dim 7", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha 0.5 --N-list 100,-5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha 400 --N-list 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a inf --alpha 0.5 --N-list 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha inf --N-list 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gauss --a inf --N-range 100:200:100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 4,,6 --N-range 8:16:4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha 0.5 --N-list 100,", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 4 --N-range 0:4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --scheme mpbt --figure psucc --a 1.0 --alpha 0.5 --N-list 5 --N-range 1:3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method exact --N 5 --k 2 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method bound-ratio --N 10 --k 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method bound-product --N 10 --k 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method bound-bernoulli --N 10 --k 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method oracle --N 2 --k 1 --d 2 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme ompbt --N 10 --k 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme opbt --N 10 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme pbt-approx --N 10 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 3,4 --N-range 12:24:6 --d 3 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 50 --N-range 4:8:4 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # integers past a C index or a float: an OverflowError, reported as malformed input
    ("fidelity --method qubit --N 99999999999999999999 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method qubit --N 99999999999999999999 --k 1 --arith log", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method exact --N 99999999999999999999 --k 1 --d 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psucc --scheme mpbt --N 5 --k 1 --d 99999999999999999999", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --k-list 4 --N-range 99999999999999999999:99999999999999999999", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # dense oracle dimensions far past its guard: refused before d**(N+k) is formed
    ("fidelity --method oracle --N 1000000 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fidelity --method oracle --N 100000000 --k 1 --d 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the qubit fidelity's log path refuses N past its limit before any table
    ("fidelity --method qubit --arith log --N 1000000000 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation; argparse exits count."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digest(argv: list[str], stdout: str) -> str:
    if argv[0] == "verify":
        stdout = "".join(line.rsplit(",", 1)[0] + ",\n" for line in stdout.splitlines())
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("command,code,sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden(command, code, sha):
    argv = command.split()
    got_code, stdout = run(argv)
    assert (got_code, digest(argv, stdout)) == (code, sha)


def test_auto_arith_takes_the_exact_path_without_a_log_path():
    shas = {command: sha for command, _, sha in GOLDEN}
    command = "psucc --scheme mpbt --N 201 --k 1 --d 3"
    assert shas[command] == shas[command + " --arith exact"]


def test_exact_rationals_print_beyond_the_int_digit_limit():
    # p = num/den with a denominator of about 9000 digits, past the 4300-digit
    # default limit of str(int); the limit must be left as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, stdout = run("psucc --N 30000 --k 2 --arith exact".split())
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def parse(digits):
        value = 0
        for i in range(0, len(digits), 500):
            chunk = digits[i : i + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        return value

    num, den = stdout.splitlines()[1].split(",")[6].split("/")
    assert code == 0 and len(den) > 4300
    assert Fraction(parse(num), parse(den)) == psucc_qubit(30000, 2, "exact").exact


def test_every_method_and_scheme_is_covered():
    """Each --method/--scheme choice of each command has a golden entry."""
    commands = [g[0].split() for g in GOLDEN]
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = []
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest not in ("method", "scheme"):
                continue
            flag = action.option_strings[0]
            for choice in action.choices:
                if not any(
                    argv[0] == name and (flag, choice) in zip(argv, argv[1:])
                    for argv in commands
                ):
                    missing.append(f"{name} {flag} {choice}")
    assert not missing


if __name__ == "__main__":
    for command, _, _ in GOLDEN:
        argv = command.split()
        code, stdout = run(argv)
        print(f'    ("{command}", {code}, "{digest(argv, stdout)}"),')
