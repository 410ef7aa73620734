"""Byte-identical CLI output: the SHA-256 of stdout and the exit code of each
argv below, for print, map both ways, enumerate and count in text and JSON
over GF(2), GF(3), GF(2^2), GF(5) and GF(3^2), plus verify and partitions.

The digests were recorded from the package before its core types stored
element codes, so any change to what the CLI prints fails here.  The verify
argvs on GF(2^2), GF(5) and GF(2), one per --which, and the budget refusal
were recorded before verify became one loop over a table of checks.
"""

import contextlib
import hashlib
import io
import shlex

from friezes.cli import main

GOLDEN = {
    "print --field 2 --row 1,1,1,0,0": (0, "56964072e26c317a82439dccce2ab857dc6af10d4a29aa4e1ff3f21326b50a97"),
    "print --field 2 --row 0,1,0,1": (0, "ab4c803982525b1fab614477f158755e591ca7c8e3c185ac95d220e360964f1d"),
    "map --field 2 --to config --row 1,1,1,0,0": (0, "55f2d2ef5d8c8a7b20c01d14903a494ab4796a3fac012599f1affdec28e5db86"),
    "map --field 2 --to config --row 0,1,0,1": (0, "e4c1e728472419a2c9087ab9237cca9ff7f27b2fc4c9ed3df57016d82fa47bb5"),
    "map --field 2 --to frieze --points 0,1,inf": (0, "1b8b240caa7cb8e33a23beb8b076d79ccae60237a1952a37a4b8fa8498685d4f"),
    "map --field 2 --to frieze --points 0,1,0,inf": (0, "5526b39389c8f221dd421f3d02847018896951c2cfe8565fbe756f67026a8a94"),
    "enumerate --field 2 --width 1": (0, "70e87eb558949e1e1d0a36547e1236fc58c22b2ea02c87cd3cc81adb1ee053e2"),
    "enumerate --field 2 --width 2": (0, "4ce1840b5756578a23bd3903fef51bac7f05168f3c323c76a3a1584111778d4e"),
    "count --field 2 --max-width 6": (0, "fe8b2fe6fe998c3852f2bf7e1ee4a10574bf72b032cfd7e8f988cfe600cb7c53"),
    "count --field 2 --kind moduli --max-n 6": (0, "ab8ef5ae9687e84cd4740c829e57e9aa788523edf15c8a4be126abca62783245"),
    "--format json print --field 2 --row 1,1,1,0,0": (0, "0f07b8accfe3fe63f140d59aa3dac42f70d3696959f5b1269d06bdb52ac1c65c"),
    "--format json print --field 2 --row 0,1,0,1": (0, "52e99d852babcff7f714e94245cae68740236221babd8b4c27a93a38d1e80a06"),
    "--format json map --field 2 --to config --row 1,1,1,0,0": (0, "e83d465dd36a5c4d2aa46e7a38514a2b347560c6270e56899b7484bec8bab7d1"),
    "--format json map --field 2 --to config --row 0,1,0,1": (0, "d2a38b8f47190b18bb0a5d2c4f3c08a29ed3e396feacbee27039afaff03d386a"),
    "--format json map --field 2 --to frieze --points 0,1,inf": (0, "f2236a002b4ec713a1e5f16a98125be512f47211e9919d1be571eea799ce512d"),
    "--format json map --field 2 --to frieze --points 0,1,0,inf": (0, "5c3bf4be969f567fa722783f09b62f8a8852f2e799c0fda010b107448536eb52"),
    "--format json enumerate --field 2 --width 1": (0, "caac12ecb0d5e049b01eaca31a45e85a59f777b1419f22fa026bc537617a3cdc"),
    "--format json enumerate --field 2 --width 2": (0, "37b59c28079d2462125838e617a2e6d70226f28ab96f3b3f0ee7a1ca6ffa04b5"),
    "--format json count --field 2 --max-width 6": (0, "d6c5bae92fdb9be4201c08570a52dab66c246971e047d11fc4f134dfc3c58f54"),
    "--format json count --field 2 --kind moduli --max-n 6": (0, "72cc2eaf58e5d17ee31913ab9af9a73539135c4c973e19f72211ec4beb8a4a3b"),
    "print --field 3 --row 0,0,2,2,2": (0, "31974c6eac832c53cec3d69437ade6fa48f40078bc30dfe9dbba0430143accfc"),
    "print --field 3 --row 1,2,1,2": (0, "a137f6a4b671049195db38a11c098e86703f4c179e58ff8eca5cf627d0fba3f1"),
    "map --field 3 --to config --row 0,0,2,2,2": (0, "ca672eb93653f5a359a17a3d034b841be543a7810759d1cafbd6a37e39528249"),
    "map --field 3 --to config --row 1,2,1,2": (0, "dc23d3f01a037fd48aeec939dfb162491e062329af2ce1cbeefd8473506723a7"),
    "map --field 3 --to frieze --points 0,1,inf": (0, "1b8b240caa7cb8e33a23beb8b076d79ccae60237a1952a37a4b8fa8498685d4f"),
    "map --field 3 --to frieze --points 0,1,2,inf": (0, "b73f78e4d5e8e410d5fc26d2676911be92b12b8dd48114bd57bce66a0ddd826a"),
    "enumerate --field 3 --width 1": (0, "ab1a320f1c8e5206ff07399ee5548846e20365eda23625458c1a97265134652c"),
    "enumerate --field 3 --width 2": (0, "fa3d73e07126a105d57d38f083358381e3c6636421b50ba96be0f477c59d3edc"),
    "count --field 3 --max-width 6": (0, "9488884a9aa94be0a45b25994a3e35372ad394c62f0273077af7d380787b4dc5"),
    "count --field 3 --kind moduli --max-n 6": (0, "2a4580307b544084d1545ee99c6598421b065fa87f84a119f3e8e4472ade3036"),
    "--format json print --field 3 --row 0,0,2,2,2": (0, "c9c383d2b1a12f0923d8ed806aceea7c2b57b9e8cb912749f3478d74eebf80b8"),
    "--format json print --field 3 --row 1,2,1,2": (0, "9653fb1216015a363502cf76b89e63f1a9f68734b560ed1e4b9cd2ca272b2a3b"),
    "--format json map --field 3 --to config --row 0,0,2,2,2": (0, "6d27c452a811f7141062321fb624ba0da7c80e583f519383f4625f1326449acb"),
    "--format json map --field 3 --to config --row 1,2,1,2": (0, "939979a615f91a557172b733f29b38c356d6292e86b1991daf7a87a225aeee06"),
    "--format json map --field 3 --to frieze --points 0,1,inf": (0, "10a85b98b5d8f08184391b44252e6a2e341fbae3169f7d626fe7c731baba3e47"),
    "--format json map --field 3 --to frieze --points 0,1,2,inf": (0, "43c5d202fb2a23e01ce55c19b03a76434070e2a848071ffcf10ed1896d99f7a3"),
    "--format json enumerate --field 3 --width 1": (0, "14bae78a555587064a136dd40aacd57eef50b1a9f358400486e04eb20df28c80"),
    "--format json enumerate --field 3 --width 2": (0, "86940b5d0aba06502b0355bd3edff43441c6e4fd460b1d562e76048918f67a8a"),
    "--format json count --field 3 --max-width 6": (0, "8f9f39290c24bb03ba3bc4e1cba14a9f769c7b4318144c24f7f1429bd2cf1c14"),
    "--format json count --field 3 --kind moduli --max-n 6": (0, "59ddddc5cc189de6ad4e58c8f076cf14448fe0c328071359bee58dc6cf084ff6"),
    "print --field 2^2 --row 2,0,3,1,1": (0, "7945cba075630db2fad415199eb407d57a7b48970cd4cc313aed7a8610acdd9d"),
    "print --field 2^2 --row 0,2,0,2": (0, "f2d2369202db95ba3c8d8bb31d439e489e9230bbb0afce8afe267972d4f4b90f"),
    "map --field 2^2 --to config --row 2,0,3,1,1": (0, "b2278b824b2d8ff2fb65cfa88cb06898f5b684dcda09eedd7f99d4ad1d19a8ce"),
    "map --field 2^2 --to config --row 0,2,0,2": (0, "c57e518b8be659985218af910c228745a44b6c20d0eed409fbda2e5675e58a5d"),
    "map --field 2^2 --to frieze --points 0,2,3": (0, "1b8b240caa7cb8e33a23beb8b076d79ccae60237a1952a37a4b8fa8498685d4f"),
    "map --field 2^2 --to frieze --points inf,2,inf,0": (0, "5526b39389c8f221dd421f3d02847018896951c2cfe8565fbe756f67026a8a94"),
    "enumerate --field 2^2 --width 1": (0, "9fd62cbf215dfd4b1d14c8dd1fd6e459561d039bea676fd3cbeca6bae7b84cbf"),
    "enumerate --field 2^2 --width 2": (0, "4737db5b9953f77ea07ac94ef20ca7175d8b59cecac502fb7816f6c5ce104a10"),
    "count --field 2^2 --max-width 6": (0, "74c51bb2e7218e82b3e18e7a3382ebe1b6aac5537e506c813e2544f771fb57d5"),
    "count --field 2^2 --kind moduli --max-n 6": (0, "6e979321dbe24faeadf08fe513f9e0693eb182d054e727c1f1e3f5ef5da5b05b"),
    "--format json print --field 2^2 --row 2,0,3,1,1": (0, "f7237e056145d360baad0adc721be877c12836de793138f6e6ecbf08d992ac78"),
    "--format json print --field 2^2 --row 0,2,0,2": (0, "54df00c4a0053dccd2bcd7d26502a7b171d8375988d50032367c60d995f6ead2"),
    "--format json map --field 2^2 --to config --row 2,0,3,1,1": (0, "6a18e9a634bfe1b726b84461a2ab58de66cc61858b7b62914e8c039795bc2228"),
    "--format json map --field 2^2 --to config --row 0,2,0,2": (0, "a4433af6874a079b32fff27b6b98b6355922fed3fd5dd8a3106a339b8309225c"),
    "--format json map --field 2^2 --to frieze --points 0,2,3": (0, "320cf6eec8f6194f627916de4ddeffb3cc1b63d662d6fc08d8d0c5e5c24e6048"),
    "--format json map --field 2^2 --to frieze --points inf,2,inf,0": (0, "d40d4da0011c4bcc02f44e0e541a496082b12b3cbbed8a1c57d418a708fc1fbd"),
    "--format json enumerate --field 2^2 --width 1": (0, "9d7c921435618b873a4a16f99fcc574a392985e56f7d97501a2cf895c8004898"),
    "--format json enumerate --field 2^2 --width 2": (0, "f0013ddd9dada0f0598b523315236ed44776a78de9d1dee0f1cad73d8dd4d3d5"),
    "--format json count --field 2^2 --max-width 6": (0, "c430a8a7fc4e41e0e23919980f75b2366576e2dd8376a5563d78d50defda54e8"),
    "--format json count --field 2^2 --kind moduli --max-n 6": (0, "aadcceed1aa9d2d864d6b7459e221a36c5ea4743afaf378746cfa15dbae3b8f6"),
    "print --field 5 --row 0,1,4,4,3": (0, "1f5d4a8cdc6b421ff8a7d5d1f9bed33193d24f78d840e8ee30a05ec323ff469e"),
    "print --field 5 --row 1,2,1,2": (0, "a137f6a4b671049195db38a11c098e86703f4c179e58ff8eca5cf627d0fba3f1"),
    "map --field 5 --to config --row 0,1,4,4,3": (0, "9a4578278f99e183af3ab06be8329e80eff198b5ebe0a70c5a5ddc77e60268ac"),
    "map --field 5 --to config --row 1,2,1,2": (0, "dc23d3f01a037fd48aeec939dfb162491e062329af2ce1cbeefd8473506723a7"),
    "map --field 5 --to frieze --points 0,4,inf": (0, "1b8b240caa7cb8e33a23beb8b076d79ccae60237a1952a37a4b8fa8498685d4f"),
    "map --field 5 --to frieze --points 1,2,inf,0": (0, "b73f78e4d5e8e410d5fc26d2676911be92b12b8dd48114bd57bce66a0ddd826a"),
    "enumerate --field 5 --width 1": (0, "8d618bf7eee445b1c06e810faf0b16327a56a49c3193301347acd9512435e982"),
    "enumerate --field 5 --width 2": (0, "f81e6e0dbc2dd23f3ac2d54fc6410ee41af3130368dc44046e2f1ebf8aad83d2"),
    "count --field 5 --max-width 6": (0, "18918d72826ce41630983cd5456c94afa1aaad7b0e4452f7326d76ef685cfe02"),
    "count --field 5 --kind moduli --max-n 6": (0, "e119cd2f27885e64b45e49389e3b931fd95b74a6992c55ede1edcf31f0d65a3d"),
    "--format json print --field 5 --row 0,1,4,4,3": (0, "d5fa67e1d3a3ed95f91b23b6d90bf8a2bc0cec6a3f9b7976ac73d63a2ff21891"),
    "--format json print --field 5 --row 1,2,1,2": (0, "40b2e6708c0d62e7f037653d9f359f7a9a24183b2b806e2940a98e39dbc14e42"),
    "--format json map --field 5 --to config --row 0,1,4,4,3": (0, "95fe8a4391987e5c5b231941e823b62e69ebc9829adab4f9bcc0b0f6de62ce1b"),
    "--format json map --field 5 --to config --row 1,2,1,2": (0, "59bec76de8c636ce921e27d43cc02a2004bd1b74e2af6ca82aa3b8cf7f15949b"),
    "--format json map --field 5 --to frieze --points 0,4,inf": (0, "cef2ea37b3c98d9bcb69b6bd90de479c1b7d8855be2261167182774f6692b8cd"),
    "--format json map --field 5 --to frieze --points 1,2,inf,0": (0, "f8f6057500a89172098d752471b31ce1d8d7b05fd96a408f5935f9f08d9c36d2"),
    "--format json enumerate --field 5 --width 1": (0, "90381e73b8228c50f9b45816de7573a653e6c6b409224f0e89e4619686242f2e"),
    "--format json enumerate --field 5 --width 2": (0, "188e9335460aba14812c002e83b5acd597618b4649d7f81373f82e8fc777b8b9"),
    "--format json count --field 5 --max-width 6": (0, "3ddde899d898eafc5863978e6c5142aa875ff488a493d2890f19325d65ae0045"),
    "--format json count --field 5 --kind moduli --max-n 6": (0, "b2ea3c7c2d94a146efceb8299fd2664356cd497e06bef227c87d3d1b71ad6890"),
    "print --field 3^2 --row 0,3,2,2,8": (0, "628f81fdaa26936e7ea7a3124a4cf8fab6de51058ce150ca19b577377ef67885"),
    "print --field 3^2 --row 4,7,4,7": (0, "886d3a6ff81b19fffd9a91ed91c534c87ef544b056585ad817819992d7c2496e"),
    "map --field 3^2 --to config --row 0,3,2,2,8": (0, "eca8c165d02f01eadd241c292e00feff3acb50ae38056adb64c7b742208cf871"),
    "map --field 3^2 --to config --row 4,7,4,7": (0, "d0444159533933525ef321f98c28018093bc0a47cf104e4ad05946417b9dfb82"),
    "map --field 3^2 --to frieze --points 0,5,inf": (0, "1b8b240caa7cb8e33a23beb8b076d79ccae60237a1952a37a4b8fa8498685d4f"),
    "map --field 3^2 --to frieze --points 5,inf,1,8,inf,0": (0, "27e7c86780ba5c521018b6b5674c9157c32f911239e03fa2e0d8edd0f3e3264c"),
    "enumerate --field 3^2 --width 1": (0, "7f84072c717f37529b6be2985c3c7b390dbcad99ee79980becbb7e3cf27e2375"),
    "enumerate --field 3^2 --width 2": (0, "c0dcc6a4427ca5e5c5db956b2262dcf01d6092ddc852017e3b92120b841f2754"),
    "count --field 3^2 --max-width 6": (0, "0ec24b309036ce690a2b34cd0e7ee827964a990b84f4d06584004ee929ce6d91"),
    "count --field 3^2 --kind moduli --max-n 6": (0, "d1ad673ec742e1cb2b18e934900eb5a7b271b6b2f302a6547b98cf191b09274a"),
    "--format json print --field 3^2 --row 0,3,2,2,8": (0, "a97db4444904a32fb14ad6f8cb86d87c7f3bb46317f628d86dd813bc7d1723df"),
    "--format json print --field 3^2 --row 4,7,4,7": (0, "5369321bd0c250d739169c32c6350e3f79193b28a55406debb0c743c8922443e"),
    "--format json map --field 3^2 --to config --row 0,3,2,2,8": (0, "da88df368e9aef964d0b85ba4ae87d94bde7e164176ecd64553c05bdb6ab2d2a"),
    "--format json map --field 3^2 --to config --row 4,7,4,7": (0, "376a473e79bcd6266f941dc530f39e166de60aa22e30cdeb5de32867facb4d11"),
    "--format json map --field 3^2 --to frieze --points 0,5,inf": (0, "aeed495c6d5fcc5bf044a4f66e946b581c270d699e8525f1f948e747afb3939a"),
    "--format json map --field 3^2 --to frieze --points 5,inf,1,8,inf,0": (0, "b0f1e17f2d6b87ed64b136e48d643f978da55a17adeab996c85c3de2a56501f7"),
    "--format json enumerate --field 3^2 --width 1": (0, "9a3d13554800dfb028dfec48b1ee705e40592dd3d94cdbb6968ade1c1bcfdd76"),
    "--format json enumerate --field 3^2 --width 2": (0, "a06ff1ededf8863970ebd1ea8e4cfca35e4ed3d71412ac3de8a718d4673a4b23"),
    "--format json count --field 3^2 --max-width 6": (0, "933c95821adbf4b3adbcb5eea12a1f82befb1ed60fb80a8c836ffa54c9ccdb06"),
    "--format json count --field 3^2 --kind moduli --max-n 6": (0, "5e958fbd1379de2cf899c5549afd88483164d99f54d8b2b7329ed013fb92dad0"),
    "print --field 3 --row 1,1,1,2,2,2": (0, "b30ef883275c8447acc02ccb849240cd8b0cca48115748a296101f7d2a2c0c9a"),
    "--format json print --field 3^2 --row 4,5,7,7,8,8": (0, "8c08e0ef6d6338bc68abf668987cc65674c4670dc2f00b2083ceb2d374de7224"),
    "print --field 3^2 --row 4,5,7,7,8,8": (0, "cfd0292c29cecba3e84680d9a9b7387b8c6bed2f76bd4c99d5be97896f090831"),
    "print --field 3 --row 1,1,1,1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "map --field 5 --to frieze --points 0,1,2,3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --field 3": (0, "c0076d8580d63bf575ddf10155f86c4195c2579c7db6c9e2f3774b726c52dc42"),
    "--format json verify --field 3": (0, "1f4ede16b9be4b6d68401c45970f3fcb84e8ff447801f5daafa5e8d554e44ff4"),
    "verify --field 2^2": (0, "2316196a75b082bb96e62576e19d7d5e4e5243c4385e2ac84550ed8a94df1508"),
    "--format json verify --field 2^2": (0, "4d993a1ea3a3b987c656d9ea0ec4945488a6d837a85a713b7b76e9708840e14e"),
    "verify --field 5 --which moduli --max-n 6": (0, "b319868432892bd8b76a041982056f3c4e56c43f1946fb46477f9450adff921f"),
    "--format json verify --field 2 --which partitions --max-n 9": (0, "fe870700bc014ed505ae26cc008f793b01fac00686850c199f94452822ed937b"),
    "--budget 100 verify --field 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partitions": (0, "27be3ceb21035fdaca243c39facd74e5c3dc9e135ff589ea142f2a7297ffc630"),
    "--format json partitions": (0, "19299a9107207fa8bcbe93e4b37cdfd45d8037a8d708e4b21c84b2fcd4490cf0"),
}


def test_cli_stdout_is_byte_identical():
    changed = []
    for argv, expected in GOLDEN.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(argv))
        if (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) != expected:
            changed.append(argv)
    assert not changed
